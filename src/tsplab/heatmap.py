"""Edge-score heatmaps and per-vertex candidate lists.

A heatmap is an ``(n, n)`` array of nonnegative finite scores with a zero
diagonal; entry ``(i, j)`` rates how attractive edge ``(i, j)`` looks.  The
two built-in generators are :func:`softdist` (a row-wise softmax of negated
distances) and :func:`zeros_heatmap` (a constant near-zero baseline).
Externally produced heatmaps enter through :mod:`tsplab.fileio`.
"""

from __future__ import annotations

import numpy as np

from .geometry import TspInstance, distance_matrix


class DegenerateTemperatureError(ValueError):
    """A softmax row lost all mass; the inputs were not finite."""


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
    sums = e.sum(axis=1, keepdims=True)
    if not np.all(np.isfinite(sums)) or np.any(sums <= 0.0):
        raise DegenerateTemperatureError("softmax row with no finite mass")
    return e / sums


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
    """Check shape, finiteness, nonnegativity, and zero diagonal."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] < 2:
        raise ValueError("heatmap must be a square (n, n) array with n >= 2")
    if n is not None and h.shape[0] != n:
        raise ValueError(f"heatmap size {h.shape[0]} does not match instance size {n}")
    if not np.all(np.isfinite(h)) or np.any(h < 0.0):
        raise ValueError("heatmap entries must be finite and nonnegative")
    if np.any(np.diagonal(h) != 0.0):
        raise ValueError("heatmap diagonal must be zero")
    return h


def candidate_sets(heatmap: np.ndarray, k: int) -> np.ndarray:
    """Top-``k`` neighbors of every vertex by descending heatmap score.

    Returns an ``(n, min(k, n-1))`` index array.  Score ties break toward
    the lower vertex index, and a vertex never lists itself.  The result
    depends only on the within-row ordering of scores, so any positive
    rescaling of the heatmap leaves it unchanged.
    """
    h = validate_heatmap(heatmap)
    if k < 1:
        raise ValueError("k must be at least 1")
    n = h.shape[0]
    scored = h.copy()
    np.fill_diagonal(scored, -np.inf)
    ties = np.broadcast_to(np.arange(n), (n, n))
    ranked = np.lexsort((ties, -scored), axis=-1)
    return np.ascontiguousarray(ranked[:, : min(k, n - 1)].astype(np.int64))

