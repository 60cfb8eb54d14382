"""Heatmap-guided Monte Carlo search over k-opt tour rewrites.

The engine keeps an edge weight matrix ``W`` (seeded from a heatmap), a
symmetric edge visit-count matrix ``Q``, and a counter ``M`` of actions
sampled so far.  Edges are scored by

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
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import accumulate
from numbers import Integral

import numpy as np

from .geometry import (
    TspInstance,
    Tour,
    _require_tour,
    _two_opt_order,
    cycle_length,
    distance_matrix,
    rng_for,
)
from .heatmap import candidate_sets, validate_heatmap


class InvalidActionError(ValueError):
    """A k-opt action does not fit the tour it was applied to."""


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
        if not np.isfinite(self.time_budget) or self.time_budget <= 0.0:
            raise ValueError("time_budget must be positive")
        # written so that NaN fails too
        if not (0.0 <= self.alpha < math.inf and 0.0 <= self.beta < math.inf):
            raise ValueError("alpha and beta must be finite and nonnegative")
        optional = (self.stagnation_limit, self.max_actions)
        counts = (self.k, self.max_depth) + tuple(c for c in optional if c is not None)
        if not all(isinstance(c, Integral) for c in counts):
            raise ValueError("k, max_depth, stagnation_limit and max_actions must be integers")
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


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class KoptAction:
    """Vertex sequence ``(a1, b1, a2, b2, ..., ak, bk, a1)``.

    Edges ``(a_i, b_i)`` are deleted, edges ``(b_i, a_{i+1})`` added; the
    final added edge returns to the anchor ``a1``.
    """

    vertices: tuple[int, ...]

    @property
    def k(self) -> int:
        return (len(self.vertices) - 1) // 2

    def deleted_edges(self) -> list[tuple[int, int]]:
        v = self.vertices
        return [(v[2 * i], v[2 * i + 1]) for i in range(self.k)]

    def added_edges(self) -> list[tuple[int, int]]:
        v = self.vertices
        return [(v[2 * i + 1], v[2 * i + 2]) for i in range(self.k)]

    def validate(self, n: int | None = None) -> None:
        v = self.vertices
        if len(v) < 5 or len(v) % 2 == 0:
            raise InvalidActionError("action must be (a1, b1, ..., ak, bk, a1) with k >= 2")
        if v[0] != v[-1]:
            raise InvalidActionError("action must close at its anchor vertex")
        if n is not None and any(not 0 <= x < n for x in v):
            raise InvalidActionError("action vertex out of range")
        dels = {_edge(u, w) for u, w in self.deleted_edges()}
        adds = {_edge(u, w) for u, w in self.added_edges()}
        if any(u == w for u, w in self.deleted_edges() + self.added_edges()):
            raise InvalidActionError("action contains a self-loop edge")
        if len(dels) != self.k or len(adds) != self.k:
            raise InvalidActionError("action repeats an edge")
        if dels & adds:
            raise InvalidActionError("action adds an edge it also deletes")


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

    ``current``/``best`` are raw permutation arrays managed by the engine;
    use :meth:`current_tour`/:meth:`best_tour` for checked views.  ``Q`` is
    kept symmetric by construction.
    """

    instance: TspInstance
    d: np.ndarray
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
    _iota: np.ndarray = field(init=False, repr=False)
    _pos: np.ndarray = field(init=False, repr=False)
    _scratch: np.ndarray = field(init=False, repr=False)
    _cur_pos: np.ndarray = field(init=False, repr=False)
    _cand_lists: list[list[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.instance.n
        self._cand_lists = self.candidates.tolist()
        self._row_sums = self.W.sum(axis=1)
        self._iota = np.arange(n, dtype=np.int64)
        self._pos = np.empty(n, dtype=np.int64)
        self._scratch = np.empty(n, dtype=np.int64)
        self._cur_pos = np.empty(n, dtype=np.int64)
        self._cur_pos[self.current] = self._iota

    @property
    def n(self) -> int:
        return self.instance.n

    def current_tour(self) -> Tour:
        return Tour(self.current.copy())

    def best_tour(self) -> Tour:
        return Tour(self.best.copy())

    def _set_current(self, order: np.ndarray, length: float) -> None:
        self.current = order
        self.current_length = length
        self._cur_pos[order] = self._iota
        if length < self.best_length:
            self.best = order.copy()
            self.best_length = length


def init_state(
    instance: TspInstance,
    heatmap: np.ndarray,
    params: MctsParams,
    rng: np.random.Generator | None = None,
) -> MctsState:
    """Build a search state: ``W = 100 * heatmap``, zero ``Q``, and a
    2-opt-polished random starting tour."""
    h = validate_heatmap(heatmap, instance.n)
    if np.any(h.sum(axis=1) <= 0.0):
        raise ValueError(
            "heatmap has a row with zero total mass; edge weights would be "
            "undefined (use zeros_heatmap for an uninformative baseline)"
        )
    if rng is None:
        rng = rng_for(params.seed, 0, "mcts")
    d = distance_matrix(instance)
    order = _two_opt_order(d, rng.permutation(instance.n))
    length = cycle_length(d, order)
    return MctsState(
        instance=instance,
        d=d,
        W=100.0 * h,
        Q=np.zeros((instance.n, instance.n), dtype=np.int64),
        M=0,
        current=order,
        current_length=length,
        best=order.copy(),
        best_length=length,
        candidates=candidate_sets(h, params.k),
        params=params,
    )


def omega(state: MctsState, i: int) -> float:
    """Mean weight of edges leaving vertex ``i``."""
    if not 0 <= i < state.n:
        raise ValueError("vertex index out of range")
    return float(state._row_sums[i] / (state.n - 1))


def _scorer(state: MctsState) -> Callable[[int, list[int]], list[float]]:
    """``potentials(v, targets)``: ``potential(v, u)`` for each ``u`` in
    ``targets``, as Python floats, at the current ``M``.

    The returned function reads ``W``, ``Q`` and the row sums live, but
    fixes ``M``; make a new one after ``M`` changes.
    """
    w = state.W.item
    q = state.Q.item
    row_sum = state._row_sums.item
    n1 = state.n - 1
    alpha = state.params.alpha
    bonus = math.log(state.M + 1.0)
    sqrt = math.sqrt

    def potentials(v: int, targets: list[int]) -> list[float]:
        om = row_sum(v) / n1
        return [w(v, u) / om + alpha * sqrt(bonus / (q(v, u) + 1.0)) for u in targets]

    return potentials


def _pick(z: list[float], rng: np.random.Generator) -> int:
    """Index sampled proportionally to ``z`` (uniform if ``z`` is degenerate).

    Sums left to right and bisects to the first cumulative sum greater than
    ``rng.random() * total``, clamped to the last index.
    """
    cum = list(accumulate(z))
    last = len(cum) - 1
    total = cum[last]
    if not math.isfinite(total) or total <= 0.0:
        return int(rng.integers(last + 1))
    return min(bisect_right(cum, rng.random() * total), last)


def edge_potential(state: MctsState, i: int, j: int) -> float:
    """Score of directed edge ``(i, j)``: exploitation plus optimism bonus."""
    if i == j:
        raise ValueError("edge potential is undefined on the diagonal")
    if not (0 <= i < state.n and 0 <= j < state.n):
        raise ValueError("vertex index out of range")
    return _scorer(state)(i, [j])[0]


def _construct_order(state: MctsState, rng: np.random.Generator) -> np.ndarray:
    n = state.n
    order = np.empty(n, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    v = int(rng.integers(n))
    order[0] = v
    visited[v] = True
    is_visited = visited.item
    potentials = _scorer(state)
    for i in range(1, n):
        open_ = [c for c in state._cand_lists[v] if not is_visited(c)]
        if open_:
            u = open_[_pick(potentials(v, open_), rng)]
        else:
            # all candidates used up: hop to the nearest unvisited vertex
            u = int(np.argmin(np.where(visited, np.inf, state.d[v])))
        order[i] = u
        visited[u] = True
        v = u
    return order


def construct_tour(state: MctsState, rng: np.random.Generator) -> Tour:
    """Sample a full tour by the chain rule over candidate transitions.

    Starts at a uniform vertex and repeatedly samples the next vertex among
    unvisited candidates proportionally to edge potential, falling back to
    the nearest unvisited vertex when no candidate remains.
    """
    return Tour(_construct_order(state, rng))


def _sample_action(
    state: MctsState, rng: np.random.Generator
) -> tuple[KoptAction, np.ndarray, float] | None:
    """Sample one k-opt action; updates ``M`` and ``Q``.

    Returns ``(action, order, length)`` where ``order`` is the resulting
    tour (a scratch buffer overwritten by the next call) and ``length`` its
    closed length, or ``None`` when the anchor admits no extension at all.

    Each step looks at no more than ``k`` candidates, so it runs as scalar
    Python: numpy's per-call cost would exceed the work.  Only the O(n)
    rotation, segment reversal and ``pos`` update stay as numpy slices.  The
    draws equal, bit for bit, those of the array formulation (``np.cumsum``
    and ``searchsorted`` over potential arrays):

    - edges are keyed by the integer ``u * n + v`` with ``u < v``, one key
      per unordered pair, so the same edges are excluded as with tuples;
    - each potential is the same IEEE double arithmetic in the same order,
      and ``_pick`` sums them left to right, exactly as ``np.cumsum`` does;
    - each pick draws one ``rng.random()`` and bisects as
      ``searchsorted(side="right")`` does, or draws one ``rng.integers`` on
      a row whose total is zero or not finite.
    """
    n = state.n
    order = state._scratch
    pos = state._pos
    cur = state.current

    a1 = int(rng.integers(n))
    i0 = state._cur_pos.item(a1)
    m = n - i0
    order[:m] = cur[i0:]
    order[m:] = cur[:i0]
    iota = state._iota
    pos[order] = iota

    pos_of = pos.item
    at = order.item
    dist = state.d.item
    cand_lists = state._cand_lists
    potentials = _scorer(state)
    b = at(1)
    c0 = state.current_length
    length = c0
    deleted = {a1 * n + b if a1 < b else b * n + a1}
    added: set[int] = set()
    seq = [a1, b]
    max_depth = state.params.max_depth
    k = 1

    while True:
        # Feasible extension targets c for the new edge (b, c):
        #  - positions 0..2 are the anchor, b itself, and b's successor
        #    (closing, a no-op chord, or an existing edge);
        #  - the chord must not recreate a deleted edge;
        #  - the edge (pred(c), c) deleted next must not be a chord we added.
        feasible = []
        for c in cand_lists[b]:
            j = pos_of(c)
            if j < 3:
                continue
            if (b * n + c if b < c else c * n + b) in deleted:
                continue
            if added:
                p = at(j - 1)
                if (p * n + c if p < c else c * n + p) in added:
                    continue
            feasible.append(c)
        if not feasible:
            # dead end: close with what we have, unless the closing edge
            # (b, a1) would recreate a deleted edge (at k=1 it always would)
            if k >= 2 and (a1 * n + b if a1 < b else b * n + a1) not in deleted:
                break
            return None
        c = feasible[_pick(potentials(b, feasible), rng)]

        j = pos_of(c)
        bn = at(j - 1)
        length += dist(a1, bn) + dist(b, c) - dist(a1, b) - dist(bn, c)
        deleted.add(bn * n + c if bn < c else c * n + bn)
        added.add(b * n + c if b < c else c * n + b)
        seq.append(c)
        seq.append(bn)
        order[1:j] = order[1:j][::-1]
        pos[order[1:j]] = iota[1:j]
        b = bn
        k += 1
        # a reversal can bring b1 back next to the anchor, making the
        # closing edge (b, a1) one we already deleted; then extend instead
        closeable = (a1 * n + b if a1 < b else b * n + a1) not in deleted
        if (length < c0 or k >= max_depth) and closeable:
            break
        if k >= max_depth:
            return None

    seq.append(a1)
    Q = state.Q
    for t in range(1, len(seq) - 1, 2):
        u, v = seq[t], seq[t + 1]
        Q[u, v] += 1
        Q[v, u] += 1
    state.M += 1
    return KoptAction(tuple(seq)), order, length


def sample_kopt(state: MctsState, rng: np.random.Generator) -> KoptAction | None:
    """Sample one k-opt action from the current tour.

    Counts the attempt in ``M`` and the chosen edges in ``Q``.  Returns
    ``None`` when the drawn anchor has no feasible continuation (then
    nothing is counted).  The action may or may not improve the tour; the
    caller decides acceptance.
    """
    res = _sample_action(state, rng)
    return None if res is None else res[0]


def apply_kopt(instance: TspInstance, tour: Tour, action: KoptAction) -> Tour:
    """Apply ``action`` to ``tour`` by replaying its segment reversals.

    The action must fit the tour's current orientation: ``b1`` must be the
    successor of ``a1``, and each later ``b_i`` the predecessor of ``a_i``
    at its step.  Raises :class:`InvalidActionError` otherwise.
    """
    _require_tour(instance, tour)
    action.validate(n=instance.n)
    seq = action.vertices
    base = tour.order
    n = base.shape[0]
    i0 = int(np.nonzero(base == seq[0])[0][0])
    order = np.concatenate([base[i0:], base[:i0]])
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    if int(order[1]) != seq[1]:
        raise InvalidActionError("b1 is not the tour successor of the anchor a1")
    for i in range(1, action.k):
        c, bn = seq[2 * i], seq[2 * i + 1]
        j = int(pos[c])
        if j < 2 or int(order[j - 1]) != bn:
            raise InvalidActionError(f"edge ({c}, {bn}) is not deletable at step {i + 1}")
        order[1:j] = order[1:j][::-1]
        pos[order[1:j]] = np.arange(1, j)
    return Tour(order)


def backpropagate(state: MctsState, c_old: float, c_new: float, action: KoptAction) -> None:
    """Reward the edges an improving action added.

    Every added edge (symmetrically) gains
    ``beta * (exp((c_old - c_new) / c_old) - 1)``.  Requires ``c_new < c_old``.
    """
    if not c_new < c_old:
        raise ValueError("backpropagate requires an improving action (c_new < c_old)")
    inc = state.params.beta * (math.exp((c_old - c_new) / c_old) - 1.0)
    W = state.W
    rs = state._row_sums
    for u, v in action.added_edges():
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
    exhausted and returns the best tour seen.  With ``checkpoints`` given,
    the result carries a ``(time, best_length)`` trace with one entry per
    checkpoint; the series is non-increasing and ends at the returned best
    length.
    """
    cps = _validated_checkpoints(checkpoints, params.time_budget)
    t0 = time.perf_counter()
    rng = rng_for(params.seed, 0, "mcts")
    state = init_state(instance, heatmap, params, rng=rng)
    stagnation = (
        params.stagnation_limit if params.stagnation_limit is not None else 100 * state.n
    )
    trace: list[tuple[float, float]] | None = [] if cps is not None else None
    ci = 0
    fails = 0
    restarts = 0

    # on 2 or 3 vertices no k-opt action exists and every tour has the same
    # length, so the initial tour is returned without searching
    while state.n > 3:
        now = time.perf_counter() - t0
        if cps is not None:
            while ci < len(cps) and now >= cps[ci]:
                trace.append((cps[ci], state.best_length))
                ci += 1
        if now >= params.time_budget:
            break
        if params.max_actions is not None and state.M >= params.max_actions:
            break

        res = _sample_action(state, rng)
        accepted = False
        if res is not None:
            action, new_order, new_len = res
            if new_len < state.current_length:
                # re-measure exactly: incremental deltas carry rounding dust
                exact = cycle_length(state.d, new_order)
                if exact < state.current_length:
                    backpropagate(state, state.current_length, exact, action)
                    state._set_current(new_order.copy(), exact)
                    accepted = True
        if accepted:
            fails = 0
        else:
            fails += 1
            if fails >= stagnation:
                order = _two_opt_order(state.d, _construct_order(state, rng))
                state._set_current(order, cycle_length(state.d, order))
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

