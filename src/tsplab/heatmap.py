"""Edge-score heatmaps and per-vertex candidate lists.

A heatmap is an ``(n, n)`` array of nonnegative finite scores with a zero
diagonal and positive mass in every row (:func:`validate_heatmap`); entry
``(i, j)`` rates how attractive edge ``(i, j)`` looks.  The
two built-in generators are :func:`softdist` (a row-wise softmax of negated
distances) and :func:`zeros_heatmap` (a constant near-zero baseline).
Externally produced heatmaps enter through :mod:`tsplab.fileio`.
"""

from __future__ import annotations

import numpy as np

from .geometry import TspInstance, distance_matrix


def softdist(instance: TspInstance, tau: float) -> np.ndarray:
    """Distance-softmax heatmap at temperature ``tau``.

    Row ``i`` is the softmax of ``-d[i, j] / tau`` over ``j != i``: each row
    sums to 1, the diagonal is exactly 0, and nearer vertices always score
    higher.  Rows are shifted by their minimum distance before
    exponentiation, so the nearest neighbor maps to ``exp(0)`` and no row can
    underflow to zero mass, even at very small temperatures.
    """
    if not np.isfinite(tau) or tau <= 0.0:
        raise ValueError("tau must be a positive finite number")
    d = distance_matrix(instance)
    np.fill_diagonal(d, np.inf)
    shift = d.min(axis=1, keepdims=True)
    e = np.exp(-(d - shift) / tau)
    return e / e.sum(axis=1, keepdims=True)


def zeros_heatmap(n: int) -> np.ndarray:
    """Uninformative baseline: every off-diagonal entry is 1e-10.

    The tiny constant (rather than literal zero) keeps downstream weight
    normalizations away from 0/0.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    h = np.full((n, n), 1e-10)
    np.fill_diagonal(h, 0.0)
    return h


def validate_heatmap(h: np.ndarray, n: int | None = None) -> np.ndarray:
    """Check every heatmap rule: square, at least 2x2, of size ``n`` when
    given, finite and nonnegative entries, zero diagonal, and positive mass
    in every row.  Returns ``h`` as a C-contiguous float64 array, the layout
    the kernel reads; a map already in it is not copied."""
    h = np.ascontiguousarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] < 2:
        raise ValueError("heatmap must be a square (n, n) array of at least 2x2")
    if n is not None and h.shape[0] != n:
        raise ValueError(f"heatmap size {h.shape[0]} does not match instance size {n}")
    if not np.all(np.isfinite(h)) or np.any(h < 0.0):
        # the n x n mask that finds the row is built only on failure
        row = np.flatnonzero((~np.isfinite(h) | (h < 0.0)).any(axis=1))[0]
        raise ValueError(f"heatmap row {row}: entries must be finite and nonnegative")
    bad = np.flatnonzero(np.diagonal(h))
    if bad.size:
        raise ValueError(f"heatmap row {bad[0]}: diagonal must be zero")
    empty = np.flatnonzero(h.sum(axis=1) <= 0.0)
    if empty.size:
        raise ValueError(
            f"heatmap row {empty[0]} has zero total mass; edge weights would be "
            "undefined (use zeros_heatmap for an uninformative baseline)"
        )
    return h


def candidate_sets(heatmap: np.ndarray, k: int) -> np.ndarray:
    """Top-``k`` neighbors of every vertex by descending heatmap score.

    Returns an ``(n, min(k, n-1))`` index array.  Score ties break toward
    the lower vertex index, and a vertex never lists itself.  The result
    depends only on the within-row ordering of scores, so any positive
    rescaling of the heatmap leaves it unchanged.  The caller validates
    ``heatmap`` (see :func:`validate_heatmap`).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = heatmap.shape[0]
    cost = -heatmap
    np.fill_diagonal(cost, np.inf)
    # a stable sort keeps equal scores in index order: ties go to the lower index
    ranked = np.argsort(cost, axis=1, kind="stable")
    # copy the slice so the full n x n ranking is not kept alive
    return np.ascontiguousarray(ranked[:, : min(k, n - 1)], dtype=np.int64)
