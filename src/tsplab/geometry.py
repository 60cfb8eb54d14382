"""Planar TSP instances, tours, and baseline solvers.

Coordinates live in the unit square and tours are closed cycles stored as
0-based vertex permutations. Randomness is always explicit: operations take a
seed or a numpy ``Generator``, and :func:`rng_for` builds counter-based
(Philox) generators keyed by ``(seed, index, tag)`` so a stream never depends
on how many other streams were drawn before it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from hashlib import blake2b

import numpy as np

_MASK64 = (1 << 64) - 1

# A 2-opt reversal must beat this margin to count as an improvement; guards
# against cycling on floating-point noise.
_IMPROVE_EPS = 1e-12

BRUTE_FORCE_MAX_N = 12
_BRUTE_FORCE_CHUNK = 262_144


class UnsupportedSizeError(ValueError):
    """An exact method was asked for an instance it cannot enumerate."""


def rng_for(seed: int, index: int = 0, tag: str = "") -> np.random.Generator:
    """Return a counter-based generator keyed by ``(seed, index, tag)``.

    Equal keys always give identical streams; distinct keys give streams that
    are independent for practical purposes.  ``tag`` names the purpose of the
    stream (e.g. ``"instance"``, ``"solve"``) so that different uses of the
    same seed do not collide.
    """
    tag_key = int.from_bytes(blake2b(tag.encode(), digest_size=8).digest(), "big")
    ss = np.random.SeedSequence(entropy=(int(seed) & _MASK64, int(index) & _MASK64, tag_key))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class TspInstance:
    """``n`` points in the closed unit square."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array")
        if pts.shape[0] < 2:
            raise ValueError("an instance needs at least 2 points")
        if not np.all(np.isfinite(pts)) or pts.min() < 0.0 or pts.max() > 1.0:
            raise ValueError("coordinates must lie in [0, 1]")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    def content_key(self) -> int:
        """Stable 64-bit digest of the coordinates.

        Used to key per-instance solve seeds, so results attach to the
        instance itself rather than to its position in a batch.
        """
        return int.from_bytes(blake2b(self.points.tobytes(), digest_size=8).digest(), "big")


@dataclass(frozen=True)
class Tour:
    """A closed tour stored as a permutation of ``{0, ..., n-1}``.

    The wrap-around edge from the last vertex back to the first is implied.
    """

    order: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(np.asarray(self.order, dtype=np.int64))
        if arr.ndim != 1 or arr.shape[0] < 2:
            raise ValueError("tour order must be a 1-d sequence of at least 2 indices")
        object.__setattr__(self, "order", arr)

    @property
    def n(self) -> int:
        return int(self.order.shape[0])


def is_permutation(order: np.ndarray, n: int) -> bool:
    order = np.asarray(order)
    if order.shape != (n,):
        return False
    return bool(np.array_equal(np.sort(order), np.arange(n)))


def _require_tour(instance: TspInstance, tour: Tour) -> None:
    if not isinstance(tour, Tour) or not is_permutation(tour.order, instance.n):
        raise ValueError("tour is not a permutation of the instance's vertices")


def generate_instances(n: int, count: int, seed: int) -> list[TspInstance]:
    """Draw ``count`` instances of ``n`` uniform points on the unit square.

    Instance ``k`` depends only on ``(seed, k)``: regenerating any subset of
    the batch reproduces the same instances.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if count < 1:
        raise ValueError("count must be at least 1")
    return [TspInstance(rng_for(seed, k, "instance").random((n, 2))) for k in range(count)]


def distance_matrix(instance: TspInstance) -> np.ndarray:
    """Full symmetric Euclidean distance matrix with a zero diagonal."""
    pts = instance.points
    diff = pts[:, None, :] - pts[None, :, :]
    return np.linalg.norm(diff, axis=-1)


def tour_length(instance: TspInstance, tour: Tour) -> float:
    """Closed-cycle length of ``tour``, including the wrap-around edge."""
    _require_tour(instance, tour)
    pts = instance.points[tour.order]
    seg = pts - np.roll(pts, -1, axis=0)
    return float(np.linalg.norm(seg, axis=1).sum())


def cycle_length(d: np.ndarray, order: np.ndarray) -> float:
    """Closed-cycle length of a vertex order under a distance matrix."""
    return float(d[order, np.roll(order, -1)].sum())


def nearest_neighbor_tour(instance: TspInstance, start: int = 0) -> Tour:
    """Greedy tour: repeatedly hop to the nearest unvisited vertex.

    Distance ties break toward the lowest vertex index.
    """
    n = instance.n
    if not 0 <= start < n:
        raise ValueError("start vertex out of range")
    d = distance_matrix(instance)
    order = np.empty(n, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    order[0] = start
    visited[start] = True
    v = start
    for i in range(1, n):
        row = np.where(visited, np.inf, d[v])
        v = int(np.argmin(row))
        order[i] = v
        visited[v] = True
    return Tour(order)


def _two_opt_order(d: np.ndarray, order: np.ndarray) -> np.ndarray:
    """First-improvement 2-opt on a vertex order.

    Scans reversal pairs (i, j) in lexicographic index order, applies the
    first improving reversal, and restarts the scan; stops at a local
    optimum.  The scan itself is vectorized: all pair deltas are computed in
    one shot and the first improving flat index is exactly the first hit of
    the nested-loop scan.
    """
    order = np.array(order, dtype=np.int64, copy=True)
    n = order.shape[0]
    if n < 4:
        return order

    # valid[i, j]: reversing order[i+1 : j+1] is a real move.  j must exceed
    # i by at least 2, and (0, n-1) would reverse the whole cycle.
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    valid = jj >= ii + 2
    valid[0, n - 1] = False

    while True:
        r = d[np.ix_(order, order)]
        edge = r[np.arange(n), (np.arange(n) + 1) % n]
        # delta of replacing edges (i, i+1) and (j, j+1) with (i, j), (i+1, j+1)
        rk = np.roll(np.roll(r, -1, axis=0), -1, axis=1)
        delta = r + rk - edge[:, None] - edge[None, :]
        hits = (delta < -_IMPROVE_EPS) & valid
        if not hits.any():
            return order
        flat = int(np.argmax(hits))
        i, j = divmod(flat, n)
        order[i + 1 : j + 1] = order[i + 1 : j + 1][::-1]


def two_opt(instance: TspInstance, tour: Tour) -> Tour:
    """2-opt local search from ``tour``; output length never exceeds input."""
    _require_tour(instance, tour)
    return Tour(_two_opt_order(distance_matrix(instance), tour.order))


def brute_force_optimal(instance: TspInstance) -> tuple[Tour, float]:
    """Exact optimum by exhaustive enumeration; only for ``n <= 12``.

    Fixes vertex 0 first and walks the remaining ``(n-1)!`` orders, skipping
    mirror duplicates by requiring the second vertex to be smaller than the
    last.  Candidate orders are scored in vectorized batches.
    """
    n = instance.n
    if n > BRUTE_FORCE_MAX_N:
        raise UnsupportedSizeError(f"brute force supports n <= {BRUTE_FORCE_MAX_N}, got {n}")
    d = distance_matrix(instance)
    if n == 2:
        return Tour(np.array([0, 1])), cycle_length(d, np.array([0, 1]))

    best_len = np.inf
    best_rest: tuple[int, ...] | None = None

    def flush(chunk: list[tuple[int, ...]]) -> None:
        nonlocal best_len, best_rest
        arr = np.array(chunk, dtype=np.int64)
        full = np.concatenate([np.zeros((arr.shape[0], 1), dtype=np.int64), arr], axis=1)
        lens = d[full[:, :-1], full[:, 1:]].sum(axis=1) + d[full[:, -1], 0]
        k = int(np.argmin(lens))
        if lens[k] < best_len:
            best_len = float(lens[k])
            best_rest = chunk[k]

    chunk: list[tuple[int, ...]] = []
    for perm in itertools.permutations(range(1, n)):
        if perm[0] > perm[-1]:
            continue
        chunk.append(perm)
        if len(chunk) >= _BRUTE_FORCE_CHUNK:
            flush(chunk)
            chunk = []
    if chunk:
        flush(chunk)

    assert best_rest is not None
    order = np.concatenate([[0], np.array(best_rest, dtype=np.int64)])
    return Tour(order), best_len
