"""Heatmap-guided Monte Carlo search over k-opt tour rewrites.

The engine keeps an edge weight matrix ``W`` (seeded from a heatmap), a
symmetric edge visit-count matrix ``Q``, and a counter ``M`` of actions
sampled so far.  The kernel (``pick`` in ``_kopt.c``) scores edges by

    potential(i, j) = W[i, j] / omega(i) + alpha * sqrt(ln(M + 1) / (Q[i, j] + 1))

where ``omega(i)`` is the mean weight of edges leaving ``i``.  The first term
exploits what the heatmap (and past improvements) says about the edge; the
second is an optimism bonus that decays as the edge gets tried.

A k-opt action is the vertex sequence ``(a1, b1, a2, b2, ..., ak, bk, a1)``:
edges ``(a_i, b_i)`` leave the tour and edges ``(b_i, a_{i+1})`` enter it,
with ``b_1`` the tour successor of the uniformly drawn anchor ``a1``.  The
sampler keeps the working tour rotated so ``a1`` sits at index 0 and realizes
each extension as a prefix-segment reversal.  Under that bookkeeping the
array always equals the tour obtained by closing the sequence immediately,
so "does closing improve?" is a constant-time length comparison.  Sequences
close as soon as closing improves on the pre-action tour, else extend until
``max_depth`` edges have been swapped.

Improving actions feed back into ``W``: every edge the action added gains
``beta * (exp(relative_gain) - 1)``, symmetrically.  After ``stagnation_limit``
consecutive non-improving samples the working tour is rebuilt by chain-rule
construction plus 2-opt; the best tour found, ``W``, ``Q`` and ``M`` all
survive restarts.

The sampling cycle, the restart tour and the 2-opt run compiled
(``_kopt.c``, bound to each state by ``_kopt.bind``, which owns the
kernel's working memory), measuring each edge from the coordinates, so a
solve builds no distance matrix; :func:`sample_kopt` is one step of that
cycle.  Python keeps the exact re-measure of each candidate and
``backpropagate``.  The kernel is built and loaded by the first solve or
``init_state``, never at import, so ``tsplab gen`` and ``tsplab heatmap``
never load it; a host that cannot build it gets ``OSError`` there.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from . import _kopt
from .geometry import (
    TspInstance,
    Tour,
    cycle_length,
    rng_for,
)
from .heatmap import candidate_sets, validate_heatmap


@dataclass
class MctsParams:
    """Search configuration.

    ``stagnation_limit`` of ``None`` means ``100 * n``, resolved at solve
    time.  ``max_actions``, when set, stops the search after that many
    sampled actions even if budget remains; runs with a binding cap are
    bitwise reproducible regardless of machine load.
    """

    time_budget: float
    seed: int = 0
    alpha: float = 1.0
    beta: float = 10.0
    k: int = 5
    max_depth: int = 10
    stagnation_limit: int | None = None
    max_actions: int | None = None

    def __post_init__(self) -> None:
        # every field is numeric; a JSON true/false would pass as 1/0
        if any(isinstance(v, bool) for v in vars(self).values()):
            raise ValueError("search parameters must be numbers, not booleans")
        if not np.isfinite(self.time_budget) or self.time_budget <= 0.0:
            raise ValueError("time_budget must be positive")
        # written so that NaN fails too
        if not (0.0 <= self.alpha < math.inf and 0.0 <= self.beta < math.inf):
            raise ValueError("alpha and beta must be finite and nonnegative")
        optional = (self.stagnation_limit, self.max_actions)
        counts = (self.seed, self.k, self.max_depth) + tuple(c for c in optional if c is not None)
        if not all(isinstance(c, Integral) for c in counts):
            raise ValueError(
                "seed, k, max_depth, stagnation_limit and max_actions must be integers"
            )
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.max_depth < 2:
            raise ValueError("max_depth must be at least 2")
        if self.stagnation_limit is not None and self.stagnation_limit < 1:
            raise ValueError("stagnation_limit must be positive")
        if self.max_actions is not None and self.max_actions < 0:
            raise ValueError("max_actions must be nonnegative")


def default_time_budget(n: int, profile: str = "default") -> float:
    """Per-instance wall budget in seconds: n/10, or n/25 for "short"."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if profile == "default":
        return n / 10.0
    if profile == "short":
        return n / 25.0
    raise ValueError(f"unknown budget profile: {profile!r}")


@dataclass
class SolveResult:
    best: Tour
    best_length: float
    actions_sampled: int
    elapsed: float
    restarts: int = 0
    trace: list[tuple[float, float]] | None = None


@dataclass
class MctsState:
    """Mutable engine state.

    ``current``/``best`` are raw permutation arrays managed by the engine.
    ``current`` is one buffer for the state's life, rewritten in place by
    :meth:`_set_current`, and ``W``, ``Q`` and ``instance.points`` are never
    replaced: the compiled sampler holds their addresses.  ``Q`` is kept
    symmetric by construction.
    """

    instance: TspInstance
    W: np.ndarray
    Q: np.ndarray
    M: int
    current: np.ndarray
    current_length: float
    best: np.ndarray
    best_length: float
    candidates: np.ndarray
    params: MctsParams
    _row_sums: np.ndarray = field(init=False, repr=False)
    _run: Callable = field(init=False, repr=False)
    _construct: Callable = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._row_sums = self.W.sum(axis=1)
        self._run, self._construct = _kopt.bind(self)

    @property
    def n(self) -> int:
        return self.instance.n

    def _set_current(self, order: np.ndarray, length: float) -> None:
        self.current[:] = order
        self.current_length = length
        if length < self.best_length:
            self.best = order.copy()
            self.best_length = length


def _engine_rng(params: MctsParams) -> np.random.Generator:
    """The search's random stream; ``init_state`` draws its starting tour
    from it, and ``mcts_solve`` keeps drawing from the same stream."""
    return rng_for(params.seed, 0, "mcts")


def init_state(
    instance: TspInstance,
    heatmap: np.ndarray,
    params: MctsParams,
    rng: np.random.Generator | None = None,
    *,
    deadline: float | None = None,
) -> MctsState:
    """Build a search state: ``W = 100 * heatmap``, zero ``Q``, and a
    2-opt-polished random starting tour.  ``heatmap`` must meet every rule
    of :func:`validate_heatmap`.

    ``deadline`` (a ``time.perf_counter()`` value) stops the 2-opt early,
    leaving the starting tour only partly polished.
    """
    h = validate_heatmap(heatmap, instance.n)
    if rng is None:
        rng = _engine_rng(params)
    # built before the 2-opt so that the deadline also covers it
    candidates = candidate_sets(h, params.k)
    order = _kopt.two_opt(instance.points, rng.permutation(instance.n), deadline)
    length = cycle_length(instance.points, order)
    return MctsState(
        instance=instance,
        W=100.0 * h,
        Q=np.zeros((instance.n, instance.n), dtype=np.int64),
        M=0,
        current=order,
        current_length=length,
        best=order.copy(),
        best_length=length,
        candidates=candidates,
        params=params,
    )


def construct_tour(state: MctsState, rng: np.random.Generator) -> Tour:
    """Sample a full tour by the chain rule over candidate transitions.

    Starts at a uniform vertex and repeatedly samples the next vertex among
    unvisited candidates proportionally to edge potential, falling back to
    the nearest unvisited vertex when no candidate remains.
    """
    return Tour(state._construct(state, rng).copy())


def sample_kopt(state: MctsState, rng: np.random.Generator) -> tuple[int, ...] | None:
    """Sample one k-opt action from the current tour: its vertex sequence
    ``(a1, b1, ..., ak, bk, a1)``.

    Counts the attempt in ``M`` and the chosen edges in ``Q``.  Returns
    ``None`` when the drawn anchor has no feasible continuation (then
    nothing is counted).  The action may or may not improve the tour; the
    caller decides acceptance.  This is one step of the solve's sampling
    cycle: stagnation after one sample, no cap and no time limit.
    """
    _, _, sample = state._run(state, rng, 0, 1, None, math.inf)
    return None if sample is None else sample[0]


def backpropagate(state: MctsState, c_old: float, c_new: float, vertices: tuple[int, ...]) -> None:
    """Reward the edges ``(b_i, a_{i+1})`` that an improving action, given
    as its vertex sequence, added.

    Every added edge (symmetrically) gains
    ``beta * (exp((c_old - c_new) / c_old) - 1)``.  Requires ``c_new < c_old``.
    """
    if not c_new < c_old:
        raise ValueError("backpropagate requires an improving action (c_new < c_old)")
    inc = state.params.beta * (math.exp((c_old - c_new) / c_old) - 1.0)
    W = state.W
    rs = state._row_sums
    for u, v in zip(vertices[1::2], vertices[2::2]):
        W[u, v] += inc
        W[v, u] += inc
        rs[u] += inc
        rs[v] += inc


def _validated_checkpoints(
    checkpoints: list[float] | tuple[float, ...] | None, budget: float
) -> list[float] | None:
    if checkpoints is None:
        return None
    cps = [float(c) for c in checkpoints]
    if not cps:
        raise ValueError("checkpoints must be non-empty when given")
    if any(not math.isfinite(c) or c <= 0.0 for c in cps):
        raise ValueError("checkpoints must be positive and finite")
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    if cps[-1] > budget:
        raise ValueError("checkpoints must not exceed the time budget")
    return cps


def mcts_solve(
    instance: TspInstance,
    heatmap: np.ndarray,
    params: MctsParams,
    checkpoints: list[float] | tuple[float, ...] | None = None,
) -> SolveResult:
    """Anytime search: sample, accept improvements, restart on stagnation.

    Runs until the wall-clock budget (or ``params.max_actions``) is
    exhausted and returns the best tour seen.  The budget also bounds the
    initial and restart 2-opt, which stop with a partly polished tour when
    it runs out.  With ``checkpoints`` given, the result carries a
    ``(time, best_length)`` trace with one entry per checkpoint; the series
    is non-increasing.  It ends at the returned best length when its last
    checkpoint is the budget.  When the search runs on past the last
    checkpoint, by time or up to ``params.max_actions``, improvements found
    after it are in the result but not in the trace.
    """
    cps = _validated_checkpoints(checkpoints, params.time_budget)
    # the first solve of a process builds the kernel: not on the budget
    _kopt.load()
    t0 = time.perf_counter()
    deadline = t0 + params.time_budget
    rng = _engine_rng(params)
    state = init_state(instance, heatmap, params, rng=rng, deadline=deadline)
    stagnation = (
        params.stagnation_limit if params.stagnation_limit is not None else 100 * state.n
    )
    trace: list[tuple[float, float]] | None = [] if cps is not None else None
    ci = 0
    fails = 0
    restarts = 0

    # on 2 or 3 vertices no k-opt action exists and every tour has the same
    # length, so the initial tour is returned without searching
    searchable = state.n > 3
    while searchable:
        now = time.perf_counter() - t0
        if cps is not None:
            while ci < len(cps) and now >= cps[ci]:
                trace.append((cps[ci], state.best_length))
                ci += 1
        if now >= params.time_budget:
            break
        # sample until a candidate, stagnation, the cap, or the next
        # checkpoint or the budget, whichever comes first
        horizon = cps[ci] if cps is not None and ci < len(cps) else params.time_budget
        event, fails, res = state._run(
            state, rng, fails, stagnation, params.max_actions, horizon - now
        )
        if event == _kopt.CAP:
            break
        if event == _kopt.CANDIDATE:
            vertices, new_order, _ = res
            # re-measure exactly: incremental deltas carry rounding dust
            exact = cycle_length(state.instance.points, new_order)
            if exact < state.current_length:
                backpropagate(state, state.current_length, exact, vertices)
                state._set_current(new_order, exact)
                fails = 0
                continue
            fails += 1
        if fails >= stagnation:
            order = _kopt.two_opt(state.instance.points, state._construct(state, rng), deadline)
            state._set_current(order, cycle_length(state.instance.points, order))
            restarts += 1
            fails = 0

    if cps is not None:
        while ci < len(cps):
            trace.append((cps[ci], state.best_length))
            ci += 1
    return SolveResult(
        best=Tour(state.best.copy()),
        best_length=state.best_length,
        actions_sampled=state.M,
        elapsed=time.perf_counter() - t0,
        restarts=restarts,
        trace=trace,
    )

