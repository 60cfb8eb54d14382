"""Planar TSP instances, tours, 2-opt local search, and the exact solver.

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

from . import _kopt

_MASK64 = (1 << 64) - 1

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
        # no tour of such an instance has a positive length
        if (pts == pts[0]).all():
            raise ValueError("an instance needs two distinct points")
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
    return cycle_length(instance.points, tour.order)


def cycle_length(points: np.ndarray, order: np.ndarray) -> float:
    """Closed-cycle length of a vertex order over ``points``; bit for bit
    the sum of its edges' :func:`distance_matrix` entries."""
    pts = points[order]
    return float(np.linalg.norm(pts - np.roll(pts, -1, axis=0), axis=1).sum())


def two_opt(instance: TspInstance, tour: Tour) -> Tour:
    """2-opt local search from ``tour``; output length never exceeds input."""
    _require_tour(instance, tour)
    return Tour(_kopt.two_opt(instance.points, tour.order))


def brute_force_optimal(instance: TspInstance) -> tuple[Tour, float]:
    """Exact optimum by exhaustive enumeration; only for ``n <= 12``.

    Fixes vertex 0 first and walks the remaining ``(n-1)!`` orders, skipping
    mirror duplicates by requiring the second vertex to be smaller than the
    last.  Candidate orders are scored in vectorized batches; the winner's
    length is its :func:`cycle_length`, bit for bit :func:`tour_length`.
    """
    n = instance.n
    if n > BRUTE_FORCE_MAX_N:
        raise UnsupportedSizeError(f"brute force supports n <= {BRUTE_FORCE_MAX_N}, got {n}")
    d = distance_matrix(instance)

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
    # the batched sums add the edges in another order, off by an ulp
    return Tour(order), cycle_length(instance.points, order)
