"""Temperature selection for the distance-softmax heatmap.

The temperature is picked by a two-stage grid search minimizing the mean
searched tour length over a fixed instance batch: a coarse sweep, then a
fine sweep around the coarse winner.  :func:`default_tau` supplies a
size-interpolated fallback when no tuning run is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bench import MctsRunSpec, instance_ids, run_single, worker_map
from .geometry import TspInstance
from .mcts import MctsParams

# (instance size, tuned temperature) anchors for default_tau.
_TAU_ANCHORS: tuple[tuple[int, float], ...] = ((500, 0.0066), (1000, 0.0051), (10000, 0.0018))


@dataclass(frozen=True)
class GridSpec:
    """Two-stage search grid: coarse points, then ``best +- radius`` by ``step``.

    A temperature's key, the value it is solved and tabled at, is its value
    rounded to 10 decimals; ``coarse`` holds the coarse points' keys, and
    the checks run on them.  The defaults sweep 0.0010 to 0.0100 by 0.0010,
    then refine by 0.0001 within 0.0010 of the coarse winner.
    """

    coarse: tuple[float, ...] = tuple(round(0.0010 * i, 4) for i in range(1, 11))
    refine_radius: float = 0.0010
    refine_step: float = 0.0001

    def __post_init__(self) -> None:
        # frozen, so the keys replace the given values through object.__setattr__
        object.__setattr__(self, "coarse", tuple(round(t, 10) for t in self.coarse))
        if not self.coarse:
            raise ValueError("coarse grid must be non-empty")
        if any(not math.isfinite(t) or t <= 0.0 for t in self.coarse):
            raise ValueError(f"coarse temperatures must be positive at 10 decimals: {self.coarse}")
        if any(b <= a for a, b in zip(self.coarse, self.coarse[1:])):
            raise ValueError(f"coarse temperatures must increase at 10 decimals: {self.coarse}")
        if not 0.0 < self.refine_step < self.refine_radius:
            raise ValueError("need 0 < refine_step < refine_radius")
        # with the check above, a finite radius makes the step finite too
        if not math.isfinite(self.refine_radius):
            raise ValueError("refine_radius must be finite")

    def refine(self, center: float) -> list[float]:
        """The refine stage's new keys around the key ``center``, increasing:
        positive, each once, and none of them a coarse point."""
        steps = int(math.floor(self.refine_radius / self.refine_step + 1e-9))
        # on the key, not the raw value: float dust just above 0 rounds to 0
        keys = (round(center + i * self.refine_step, 10) for i in range(-steps, steps + 1))
        return list(dict.fromkeys(k for k in keys if k > 0.0 and k not in self.coarse))


@dataclass(frozen=True)
class TuneResult:
    best_tau: float
    table: tuple[tuple[float, float], ...]  # (tau, mean length), sorted by tau


def _stage_means(
    instances: list[TspInstance], taus: Sequence[float], params: MctsParams, solve_map: Callable
) -> list[float]:
    """Mean searched length over ``instances`` at each of ``taus``, in order.

    Every (temperature, instance) solve goes to ``solve_map`` (a
    :func:`~tsplab.bench.worker_map`) as one batch.
    """
    n = len(instances)
    specs = [MctsRunSpec(method="softdist", params=params, tau=tau) for tau in taus]
    records = list(solve_map(run_single, instances * len(taus),
                             [spec for spec in specs for _ in range(n)],
                             instance_ids(n) * len(taus)))
    return [float(np.sort(np.array([r.length for r in records[i:i + n]])).mean())
            for i in range(0, len(records), n)]


def evaluate_tau(
    instances: list[TspInstance], tau: float, params: MctsParams, workers: int = 1
) -> float:
    """Mean searched length over ``instances`` at temperature ``tau``: one
    stage of :func:`grid_search_tau` with a single temperature, over at most
    ``min(workers, len(instances))`` processes.

    Per-instance seeds key off instance content, and lengths are summed in
    sorted order, so the result is invariant to instance-list permutation
    and to the worker count.
    """
    with worker_map(workers, len(instances)) as solve_map:
        return _stage_means(instances, [tau], params, solve_map)[0]


def grid_search_tau(
    instances: list[TspInstance],
    params: MctsParams,
    grid: GridSpec = GridSpec(),
    workers: int = 1,
) -> TuneResult:
    """Two-stage temperature search minimizing mean searched length.

    Every evaluated temperature appears in the result table exactly once,
    keyed as in :class:`GridSpec` (refine points that repeat a coarse point
    are not re-run).  Ties on the objective break toward the smaller
    temperature.

    One :func:`~tsplab.bench.worker_map` serves the whole search, so at most
    one pool of at most ``min(workers, coarse solves)`` processes is forked.
    Each stage is one batch: every coarse temperature over every instance,
    then every new refine temperature.  The table is the same at any worker
    count (see :func:`evaluate_tau`).
    """
    with worker_map(workers, len(grid.coarse) * len(instances)) as solve_map:
        evals = dict(zip(grid.coarse, _stage_means(instances, grid.coarse, params, solve_map)))
        refine = grid.refine(_argmin(evals))
        evals.update(zip(refine, _stage_means(instances, refine, params, solve_map)))
    return TuneResult(best_tau=_argmin(evals), table=tuple(sorted(evals.items())))


def _argmin(evals: dict[float, float]) -> float:
    """The temperature of least mean length, the smaller one on a tie."""
    return min(evals, key=lambda tau: (evals[tau], tau))


def default_tau(n: int) -> float:
    """Temperature for instance size ``n`` from tuned anchors.

    Interpolates linearly in (log n, log tau) between the anchor sizes and
    extrapolates with the nearest segment's slope outside them.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    for size, tau in _TAU_ANCHORS:
        if n == size:
            return tau
    lx = [math.log(size) for size, _ in _TAU_ANCHORS]
    ly = [math.log(tau) for _, tau in _TAU_ANCHORS]
    x = math.log(n)
    if x <= lx[0]:
        seg = 0
    elif x >= lx[-1]:
        seg = len(lx) - 2
    else:
        seg = next(i for i in range(len(lx) - 1) if lx[i] <= x <= lx[i + 1])
    t = ly[seg] + (ly[seg + 1] - ly[seg]) * (x - lx[seg]) / (lx[seg + 1] - lx[seg])
    return math.exp(t)
