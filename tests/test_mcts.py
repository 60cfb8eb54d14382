import ctypes
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from bisect import bisect_right
from collections import Counter
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

from tsplab import _kopt
from tsplab.geometry import (
    Tour,
    TspInstance,
    brute_force_optimal,
    cycle_length,
    distance_matrix,
    generate_instances,
    is_permutation,
    rng_for,
    tour_length,
)
from tsplab.heatmap import softdist, zeros_heatmap
from tsplab.mcts import (
    MctsParams,
    MctsState,
    backpropagate,
    construct_tour,
    default_time_budget,
    init_state,
    mcts_solve,
    sample_kopt,
)
from tsplab.tuner import default_tau

from kopt_oracle import (
    InvalidActionError,
    added_edges,
    apply_kopt,
    deleted_edges,
    omega,
    scorer,
    validate,
)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _uniform_heatmap(n: int, value: float = 0.05) -> np.ndarray:
    h = np.full((n, n), value)
    np.fill_diagonal(h, 0.0)
    return h


def _state(n=8, seed=0, value=0.05, heatmap=None, instance=None, **params):
    inst = instance if instance is not None else generate_instances(n, 1, seed=seed)[0]
    h = heatmap if heatmap is not None else _uniform_heatmap(inst.n, value)
    params.setdefault("time_budget", 1.0)
    params.setdefault("seed", seed)
    return init_state(inst, h, MctsParams(**params))


class TestParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            MctsParams(time_budget=0.0)
        with pytest.raises(ValueError):
            MctsParams(time_budget=True)
        with pytest.raises(ValueError):
            MctsParams(time_budget=1.0, alpha=-0.1)
        with pytest.raises(ValueError):
            MctsParams(time_budget=1.0, beta=-1.0)
        with pytest.raises(ValueError):
            MctsParams(time_budget=1.0, k=0)
        with pytest.raises(ValueError):
            MctsParams(time_budget=1.0, max_depth=1)
        with pytest.raises(ValueError):
            MctsParams(time_budget=1.0, stagnation_limit=0)
        with pytest.raises(ValueError):
            MctsParams(time_budget=1.0, max_actions=-1)
        for bad in (
            dict(alpha=math.nan),
            dict(beta=math.nan),
            dict(alpha=math.inf),
            dict(beta=math.inf),
            dict(k=2.5),
            dict(k=5.0),
            dict(max_depth=3.5),
            dict(stagnation_limit=10.5),
            dict(max_actions=100.0),
            dict(seed=2.5),
            dict(seed=True),
            dict(alpha=True),
            dict(beta=False),
            dict(k=True),
            dict(max_depth=True),
            dict(stagnation_limit=True),
            dict(max_actions=False),
        ):
            with pytest.raises(ValueError):
                MctsParams(time_budget=1.0, **bad)
        # a number written as a string is refused by name, not by numpy
        for bad in (dict(time_budget="1"), dict(alpha="1"), dict(beta="10")):
            with pytest.raises(ValueError, match="time_budget, alpha and beta must be real"):
                MctsParams(**{"time_budget": 1.0, **bad})

    def test_default_time_budget(self):
        assert default_time_budget(500) == 50.0
        assert default_time_budget(1000) == 100.0
        assert default_time_budget(500, "short") == 20.0
        with pytest.raises(ValueError):
            default_time_budget(1)
        with pytest.raises(ValueError):
            default_time_budget(100, "warp")


class TestInitState:
    def test_weights_are_scaled_heatmap(self):
        state = _state(n=6, value=0.5)
        off = ~np.eye(6, dtype=bool)
        assert np.all(state.W[off] == 50.0)
        assert np.all(np.diagonal(state.W) == 0.0)

    def test_counters_start_at_zero(self):
        state = _state(n=6)
        assert state.M == 0
        assert state.Q.dtype == np.int64
        assert np.all(state.Q == 0)

    def test_best_equals_current_at_init(self):
        state = _state(n=9)
        assert np.array_equal(state.best, state.current)
        assert is_permutation(state.current, 9)
        inst = state.instance
        assert abs(state.best_length - tour_length(inst, Tour(state.best))) < 1e-12
        assert state.best_length == state.current_length

    def test_candidate_shape(self):
        state = _state(n=9, k=4)
        assert state.candidates.shape == (9, 4)

    def test_rejects_dimension_mismatch(self):
        inst = generate_instances(6, 1, seed=0)[0]
        with pytest.raises(ValueError):
            init_state(inst, _uniform_heatmap(5), MctsParams(time_budget=1.0))

    def test_rejects_zero_mass_row(self):
        h = _uniform_heatmap(5)
        h[2, :] = 0.0
        inst = generate_instances(5, 1, seed=0)[0]
        with pytest.raises(ValueError):
            init_state(inst, h, MctsParams(time_budget=1.0))

    def test_no_dense_distance_state(self):
        # the kernel measures edges from the coordinates, so W and Q are the
        # only n x n arrays init allocates; a distance matrix and its build
        # would bring the peak to 6 x 8n^2 bytes
        n = 1000
        inst = generate_instances(n, 1, seed=0)[0]
        h = softdist(inst, default_tau(n))
        _kopt.load()
        tracemalloc.start()
        try:
            init_state(inst, h, MctsParams(time_budget=600.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * n * n


class TestOmega:
    def test_uniform_row(self):
        state = _state(n=7, value=0.05)
        for i in range(7):
            assert omega(state, i) == 5.0

    def test_hand_arithmetic_n3(self):
        h = np.array([[0.0, 0.02, 0.04], [0.02, 0.0, 0.04], [0.04, 0.04, 0.0]])
        state = _state(instance=generate_instances(3, 1, seed=1)[0], heatmap=h)
        assert abs(omega(state, 0) - 3.0) < 1e-12

    def test_zeros_heatmap_value(self):
        state = _state(instance=generate_instances(6, 1, seed=2)[0], heatmap=zeros_heatmap(6))
        assert math.isclose(omega(state, 0), 1e-8, rel_tol=1e-12)


class TestEdgePotential:
    # hand values for the oracle's formula, which the kernel's pick() matches
    # bit for bit (the parity and cumulative-boundary tests)
    def test_fresh_state_is_exactly_one(self):
        state = _state(n=8, alpha=3.7)
        # ln(M + 1) = 0, so only W / omega remains, and the row is uniform
        assert scorer(state)(0, [1]) == [1.0]

    def test_after_one_action_unvisited_edge(self):
        state = _state(n=8, alpha=1.0)
        state.M = 1
        expected = 1.0 + math.sqrt(math.log(2.0))  # 1.8325546111576977
        assert abs(scorer(state)(0, [1])[0] - expected) < 1e-9

    def test_after_one_action_visited_edge(self):
        state = _state(n=8, alpha=1.0)
        state.M = 1
        state.Q[0, 1] = state.Q[1, 0] = 1
        expected = 1.0 + math.sqrt(math.log(2.0) / 2.0)  # 1.5887050112577373
        assert abs(scorer(state)(0, [1])[0] - expected) < 1e-9

    def test_alpha_zero_reduces_to_weight_ratio(self):
        state = _state(n=8, alpha=0.0)
        state.M = 17
        state.Q[0, 1] = state.Q[1, 0] = 5
        assert scorer(state)(0, [1]) == [1.0]

    def test_scale_invariance_at_m_zero(self):
        inst = generate_instances(10, 1, seed=7)[0]
        h = softdist(inst, 0.06)
        a = _state(instance=inst, heatmap=h)
        b = _state(instance=inst, heatmap=1000.0 * h)
        assert np.array_equal(a.candidates, b.candidates)
        for v, row in enumerate(a.candidates.tolist()):
            for pa, pb in zip(scorer(a)(v, row), scorer(b)(v, row)):
                assert math.isclose(pa, pb, rel_tol=1e-12)


def _reference_pick(z: np.ndarray, rng: np.random.Generator) -> int:
    # the array formulation _pick must reproduce draw for draw
    cum = np.cumsum(z)
    total = float(cum[-1])
    if not math.isfinite(total) or total <= 0.0:
        return int(rng.integers(z.shape[0]))
    x = rng.random() * total
    return min(int(np.searchsorted(cum, x, side="right")), z.shape[0] - 1)


class TestPick:
    @staticmethod
    def _same_draw(z: list[float], seed: int) -> int:
        got_rng, ref_rng = rng_for(seed, 0, "pick"), rng_for(seed, 0, "pick")
        got = _pick(z, got_rng)
        assert got == _reference_pick(np.array(z), ref_rng)
        state = [json.dumps(r.bit_generator.state, default=np.ndarray.tolist)
                 for r in (got_rng, ref_rng)]
        assert state[0] == state[1]
        return got

    def test_random_weights(self):
        gen = np.random.default_rng(0)
        for seed in range(300):
            z = gen.random(int(gen.integers(1, 7)))
            z[gen.random(z.shape[0]) < 0.3] = 0.0
            self._same_draw(z.tolist(), seed)

    def test_draw_on_a_cumulative_boundary(self):
        hits = 0
        for seed in range(40):
            u = rng_for(seed, 0, "pick").random()
            if u < 0.5:
                continue
            # for u >= 0.5 both 1 - u and u + (1 - u) are exact, so the
            # drawn x = u * 1.0 equals the first cumulative sum
            z = [u, 0.0, 1.0 - u]
            assert u + (1.0 - u) == 1.0
            assert self._same_draw(z, seed) == 2
            assert self._same_draw([u, 1.0 - u], seed) == 1
            hits += 1
        assert hits >= 10

    def test_degenerate_rows_draw_uniformly(self):
        for seed in range(50):
            self._same_draw([0.0, 0.0, 0.0, 0.0], seed)
            self._same_draw([1.0, math.inf, 2.0], seed)
            self._same_draw([0.0], seed)


class TestConstructTour:
    def test_n2_unique_tour(self):
        state = _state(n=2)
        rng = rng_for(0, 0, "c")
        for _ in range(5):
            assert sorted(construct_tour(state, rng).order.tolist()) == [0, 1]

    def test_triangle_successor_frequencies(self):
        h = 0.6 * math.sqrt(3.0) / 2.0
        inst = TspInstance(np.array([[0.2, 0.2], [0.8, 0.2], [0.5, 0.2 + h]]))
        state = _state(instance=inst)
        rng = rng_for(42, 0, "c")
        follows = {1: 0, 2: 0}
        starts_at_zero = 0
        for _ in range(30000):
            order = construct_tour(state, rng).order
            if order[0] == 0:
                starts_at_zero += 1
                follows[int(order[1])] += 1
        assert starts_at_zero > 8000
        for v in (1, 2):
            assert abs(follows[v] / starts_at_zero - 0.5) < 0.02

    def test_always_a_permutation(self):
        for seed in range(10):
            n = (5, 9, 17)[seed % 3]
            inst = generate_instances(n, 1, seed=seed)[0]
            state = _state(instance=inst, heatmap=softdist(inst, 0.05))
            order = construct_tour(state, rng_for(seed, 3, "c")).order
            assert is_permutation(order, n)


class TestSampleKopt:
    def test_k2_updates_m_and_two_q_pairs(self):
        found = False
        for seed in range(30):
            state = _state(n=10, seed=seed, max_depth=2)
            action = sample_kopt(state, rng_for(seed, 0, "s"))
            if action is None:
                continue
            found = True
            assert len(action) // 2 == 2
            assert state.M == 1
            assert np.array_equal(state.Q, state.Q.T)
            assert state.Q.sum() == 4  # two symmetric pairs
            for u, v in added_edges(action):
                assert state.Q[u, v] == 1 and state.Q[v, u] == 1
            break
        assert found

    def test_q_stays_symmetric_and_m_counts_actions(self):
        state = _state(n=12, seed=1)
        rng = rng_for(1, 1, "s")
        completed = 0
        for _ in range(300):
            if sample_kopt(state, rng) is not None:
                completed += 1
        assert state.M == completed
        assert completed > 0
        assert np.array_equal(state.Q, state.Q.T)

    def test_actions_validate_and_respect_depth(self):
        state = _state(n=15, seed=2, max_depth=4)
        rng = rng_for(2, 1, "s")
        seen = 0
        for _ in range(200):
            action = sample_kopt(state, rng)
            if action is None:
                continue
            seen += 1
            validate(action, n=15)
            assert 2 <= len(action) // 2 <= 4
        assert seen > 50

    def test_crossing_square_recovery(self):
        # heatmap mass sits on the four sides, so the sampler proposes the
        # 2-opt move that uncrosses the diagonal tour
        inst = TspInstance(SQUARE)
        h = np.zeros((4, 4))
        for u, v in ((0, 1), (1, 2), (2, 3), (3, 0)):
            h[u, v] = h[v, u] = 1.0
        h[0, 2] = h[2, 0] = h[1, 3] = h[3, 1] = 1e-6
        state = _state(instance=inst, heatmap=h)
        crossing = np.array([0, 2, 1, 3])
        crossing_length = cycle_length(inst.points, crossing)
        state._set_current(crossing, crossing_length)
        rng = rng_for(0, 0, "x")
        found = False
        for _ in range(500):
            action = sample_kopt(state, rng)
            if action is None:
                continue
            new = apply_kopt(inst, Tour(crossing.copy()), action)
            if tour_length(inst, new) < crossing_length - 1e-9:
                assert len(action) // 2 == 2
                assert abs(tour_length(inst, new) - 4.0) < 1e-9
                found = True
                break
        assert found


class TestApplyKopt:
    def test_k2_equals_segment_reversal(self):
        inst = generate_instances(9, 1, seed=4)[0]
        order = rng_for(4, 0, "a").permutation(9)
        j = 5
        action = (int(order[0]), int(order[1]), int(order[j]), int(order[j - 1]), int(order[0]))
        result = apply_kopt(inst, Tour(order.copy()), action)
        expected = order.copy()
        expected[1:j] = expected[1:j][::-1]
        assert np.array_equal(result.order, expected)

    def test_delta_identity_on_sampled_actions(self):
        checked = 0
        for seed in range(5):
            inst = generate_instances(15, 1, seed=seed)[0]
            d = distance_matrix(inst)
            state = _state(instance=inst, heatmap=softdist(inst, 0.05), seed=seed)
            rng = rng_for(seed, 2, "a")
            base = Tour(state.current.copy())
            base_len = tour_length(inst, base)
            for _ in range(60):
                action = sample_kopt(state, rng)
                if action is None:
                    continue
                new_len = tour_length(inst, apply_kopt(inst, base, action))
                delta = sum(d[u, v] for u, v in added_edges(action)) - sum(
                    d[u, v] for u, v in deleted_edges(action)
                )
                assert abs((new_len - base_len) - delta) < 1e-9
                checked += 1
        assert checked >= 200

    def test_rejects_wrong_successor(self):
        inst = generate_instances(6, 1, seed=5)[0]
        order = np.arange(6)
        # b1=2 is not the successor of a1=0 on the identity tour
        action = (0, 2, 4, 3, 0)
        with pytest.raises(InvalidActionError, match="b1 is not the tour successor"):
            apply_kopt(inst, Tour(order), action)
        # b2=5 is the successor of a2=4, not its predecessor
        with pytest.raises(InvalidActionError, match=r"edge \(4, 5\) is not deletable at step 2"):
            apply_kopt(inst, Tour(order), (0, 1, 4, 5, 0))

    def test_action_validation(self):
        with pytest.raises(InvalidActionError, match="with k >= 2"):
            validate((0, 1, 2, 3))  # even length
        with pytest.raises(InvalidActionError, match="close at its anchor"):
            validate((0, 1, 2, 3, 4))  # does not close
        with pytest.raises(InvalidActionError, match="out of range"):
            validate((0, 1, 3, 4, 0), n=4)
        with pytest.raises(InvalidActionError, match="self-loop"):
            validate((0, 0, 2, 3, 0))
        with pytest.raises(InvalidActionError, match="repeats an edge"):
            validate((0, 1, 0, 1, 0))
        with pytest.raises(InvalidActionError, match="adds an edge it also deletes"):
            validate((0, 1, 3, 1, 0))
        validate((0, 1, 3, 2, 0), n=4)


class TestBackpropagate:
    def test_percent_improvement_increment(self):
        state = _state(n=8, beta=10.0)
        before = state.W.copy()
        action = (0, 1, 2, 3, 0)
        backpropagate(state, 100.0, 99.0, action)
        inc = 10.0 * (math.exp(0.01) - 1.0)  # 0.10050167084168057
        for u, v in added_edges(action):
            assert abs(state.W[u, v] - before[u, v] - inc) < 1e-9
            assert abs(state.W[v, u] - before[v, u] - inc) < 1e-9
        touched = np.zeros_like(state.W, dtype=bool)
        for u, v in added_edges(action):
            touched[u, v] = touched[v, u] = True
        assert np.array_equal(state.W[~touched], before[~touched])

    def test_halving_increment(self):
        state = _state(n=8, beta=1.0)
        before = state.W[1, 2]
        backpropagate(state, 2.0, 1.0, (0, 1, 2, 3, 0))
        assert abs(state.W[1, 2] - before - (math.exp(0.5) - 1.0)) < 1e-9

    def test_row_sums_stay_consistent(self):
        state = _state(n=8, beta=5.0)
        backpropagate(state, 10.0, 9.0, (0, 1, 2, 3, 0))
        for i in range(8):
            assert abs(omega(state, i) - state.W[i].sum() / 7.0) < 1e-12

    def test_requires_improvement(self):
        state = _state(n=8)
        with pytest.raises(ValueError):
            backpropagate(state, 5.0, 5.0, (0, 1, 2, 3, 0))
        with pytest.raises(ValueError):
            backpropagate(state, 5.0, 6.0, (0, 1, 2, 3, 0))


class TestMctsSolve:
    def test_tiny_budget_returns_polished_initial_tour(self):
        inst = generate_instances(12, 1, seed=6)[0]
        result = mcts_solve(inst, _uniform_heatmap(12), MctsParams(time_budget=1e-9, seed=6))
        assert result.actions_sampled == 0
        assert is_permutation(result.best.order, 12)
        assert abs(result.best_length - tour_length(inst, result.best)) < 1e-12

    def test_max_actions_zero_is_deterministic_noop(self):
        inst = generate_instances(10, 1, seed=7)[0]
        params = MctsParams(time_budget=60.0, seed=7, max_actions=0)
        a = mcts_solve(inst, _uniform_heatmap(10), params)
        b = mcts_solve(inst, _uniform_heatmap(10), params)
        assert a.actions_sampled == 0
        assert np.array_equal(a.best.order, b.best.order)

    def test_finds_small_optimum(self):
        inst = generate_instances(7, 1, seed=8)[0]
        _, opt = brute_force_optimal(inst)
        result = mcts_solve(inst, softdist(inst, 0.03), MctsParams(time_budget=0.4, seed=8))
        assert abs(result.best_length - opt) < 1e-9

    def test_deterministic_under_action_cap(self):
        inst = generate_instances(10, 1, seed=9)[0]
        h = softdist(inst, 0.05)
        params = MctsParams(time_budget=30.0, seed=9, max_actions=400)
        a = mcts_solve(inst, h, params)
        b = mcts_solve(inst, h, params)
        assert a.actions_sampled == b.actions_sampled == 400
        assert a.best_length == b.best_length
        assert np.array_equal(a.best.order, b.best.order)

    def test_trace_shape_and_monotonicity(self):
        inst = generate_instances(10, 1, seed=10)[0]
        cps = [0.03, 0.08, 0.15]
        result = mcts_solve(
            inst, softdist(inst, 0.05), MctsParams(time_budget=0.15, seed=10), checkpoints=cps
        )
        assert result.trace is not None
        assert [t for t, _ in result.trace] == cps
        values = [v for _, v in result.trace]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == result.best_length
        assert result.elapsed <= 0.15 * 1.3
        # under a cap, asking for a trace leaves the search itself unchanged
        inst = generate_instances(9, 1, seed=11)[0]
        h = softdist(inst, 0.05)
        params = MctsParams(time_budget=20.0, seed=11, max_actions=300)
        traced = mcts_solve(inst, h, params, checkpoints=[20.0])
        plain = mcts_solve(inst, h, params)
        assert traced.trace == [(20.0, plain.best_length)]
        assert np.array_equal(traced.best.order, plain.best.order)

    def test_checkpoint_validation(self):
        inst = generate_instances(6, 1, seed=0)[0]
        h = _uniform_heatmap(6)
        for bad in ([0.2, 0.1], [0.1, 0.1], [-0.1, 0.2], [0.1, 0.9], []):
            with pytest.raises(ValueError):
                mcts_solve(inst, h, MctsParams(time_budget=0.5, seed=0), checkpoints=bad)

    @pytest.mark.parametrize("n", [2, 3])
    def test_tiny_instances_return_at_once(self, n):
        inst = generate_instances(n, 1, seed=13)[0]
        params = MctsParams(time_budget=5.0, seed=13, max_actions=50)
        t0 = time.perf_counter()
        result = mcts_solve(inst, _uniform_heatmap(n), params, checkpoints=[1.0, 5.0])
        assert time.perf_counter() - t0 < 0.5
        assert result.actions_sampled == 0 and result.restarts == 0
        assert is_permutation(result.best.order, n)
        assert abs(result.best_length - tour_length(inst, result.best)) < 1e-12
        assert result.trace == [(1.0, result.best_length), (5.0, result.best_length)]

    @pytest.mark.parametrize("n, budget", [(500, 2.0), (1000, 1.0)])
    def test_budget_covers_initialization(self, n, budget):
        inst = generate_instances(n, 1, seed=14)[0]
        h = softdist(inst, default_tau(n))
        result = mcts_solve(inst, h, MctsParams(time_budget=budget, seed=14))
        assert result.elapsed <= 1.05 * budget
        assert abs(result.best_length - tour_length(inst, result.best)) < 1e-9
        if n == 500:
            assert result.actions_sampled > 0

    def test_budget_excludes_the_kernel_build(self, monkeypatch):
        # the first solve of a process builds or loads the kernel before its clock starts
        real = _kopt._open
        monkeypatch.setattr(_kopt, "_open", lambda: time.sleep(0.3) or real())
        monkeypatch.setattr(_kopt, "_kernel", None)
        inst = generate_instances(50, 1, seed=16)[0]
        result = mcts_solve(inst, softdist(inst, default_tau(50)), MctsParams(time_budget=0.1))
        assert result.elapsed <= 0.105

    def test_depth_beyond_n_solves_as_depth_n(self):
        # an action deletes distinct edges of its start tour, so at most n:
        # a larger max_depth closes the same actions, and sizes no buffer
        inst = generate_instances(20, 1, seed=17)[0]
        h = softdist(inst, default_tau(20))
        a, b = (
            mcts_solve(inst, h, MctsParams(time_budget=60.0, seed=17, max_depth=depth,
                                           max_actions=3000, stagnation_limit=200))
            for depth in (20, 10**11)
        )
        assert (a.best_length, a.actions_sampled, a.restarts) == (
            b.best_length, b.actions_sampled, b.restarts)
        assert np.array_equal(a.best.order, b.best.order)

    @pytest.mark.parametrize("layout", [np.asfortranarray, lambda h: np.ascontiguousarray(h.T).T],
                             ids=["fortran", "transposed_view"])
    def test_heatmap_in_any_memory_layout(self, layout):
        # the same map in another layout solves exactly as the C-ordered one
        inst = generate_instances(20, 1, seed=0)[0]
        h = softdist(inst, 0.05)
        params = MctsParams(time_budget=60.0, seed=0, max_actions=500)
        want = mcts_solve(inst, h, params)
        other = layout(h)
        assert not other.flags.c_contiguous and np.array_equal(other, h)
        got = mcts_solve(inst, other, params)
        assert (got.best_length, got.actions_sampled, got.restarts) == (
            want.best_length, want.actions_sampled, want.restarts)
        assert np.array_equal(got.best.order, want.best.order)

    def test_restarts_on_stagnation(self):
        inst = generate_instances(20, 1, seed=12)[0]
        params = MctsParams(time_budget=0.4, seed=12, stagnation_limit=40)
        result = mcts_solve(inst, _uniform_heatmap(20), params)
        assert result.restarts >= 1
        assert abs(result.best_length - tour_length(inst, result.best)) < 1e-12


def _nearest_pair_heatmap(inst: TspInstance) -> np.ndarray:
    # weight 1 on each vertex's two nearest neighbours and 0 elsewhere: with
    # k=5 most candidates carry no weight, so under alpha=0 a row of feasible
    # candidates can sum to zero
    d = distance_matrix(inst)
    np.fill_diagonal(d, np.inf)
    h = np.zeros_like(d)
    np.put_along_axis(h, np.argsort(d, axis=1)[:, :2], 1.0, axis=1)
    return h


# Capped solves pinned bit for bit: (best_length, sha256 of best.order as
# int64 bytes, first 16 hex digits, actions_sampled, restarts).  Together the
# cases reach every branch of the sampler: restart tours (including the
# nearest-unvisited hop), dead ends, the uniform pick on a zero-potential row
# (alpha=0 case) and closing at max_depth (depth-2 case).
# ``TestCompiledSampler.test_golden_on_both_samplers`` holds the kernel and
# the Python oracle to them.
GOLDEN = {
    "softdist": (7.355936183614727, "8de7a713e3a95118", 3000, 8),
    "zeros": (6.285277797027128, "d88e2020defce6f1", 2000, 11),
    "sparse_alpha0": (6.175609111642939, "135c0f11c392f898", 2000, 14),
    "depth2": (6.485208879102057, "b78b230fc728b504", 2000, 10),
}


def _golden_case(name: str):
    if name == "softdist":
        inst = generate_instances(80, 1, seed=21)[0]
        h = softdist(inst, default_tau(80))
        return inst, h, dict(seed=5, max_actions=3000, stagnation_limit=150)
    if name == "zeros":
        inst = generate_instances(60, 1, seed=22)[0]
        return inst, zeros_heatmap(60), dict(seed=6, max_actions=2000, stagnation_limit=150)
    if name == "sparse_alpha0":
        inst = generate_instances(60, 1, seed=23)[0]
        h = _nearest_pair_heatmap(inst)
        return inst, h, dict(seed=7, alpha=0.0, max_actions=2000, stagnation_limit=100)
    inst = generate_instances(70, 1, seed=24)[0]
    h = softdist(inst, default_tau(70))
    return inst, h, dict(seed=8, max_depth=2, max_actions=2000, stagnation_limit=200)


def _golden_solve(name: str) -> tuple:
    inst, h, kw = _golden_case(name)
    result = mcts_solve(inst, h, MctsParams(time_budget=600.0, **kw))
    digest = hashlib.sha256(np.asarray(result.best.order, dtype=np.int64).tobytes())
    return result.best_length, digest.hexdigest()[:16], result.actions_sampled, result.restarts


# The Python sampler, run loop and restart construction: the oracles the
# compiled ones are held to.


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


def _construct_order(state: MctsState, rng: np.random.Generator) -> np.ndarray:
    """The oracle of ``kopt_construct`` in ``_kopt.c``: a restart tour by
    the chain rule, as :func:`tsplab.mcts.construct_tour` describes."""
    n = state.n
    d = distance_matrix(state.instance)
    cand_lists = state.candidates.tolist()
    order = np.empty(n, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    v = int(rng.integers(n))
    order[0] = v
    visited[v] = True
    is_visited = visited.item
    potentials = scorer(state)
    for i in range(1, n):
        open_ = [c for c in cand_lists[v] if not is_visited(c)]
        if open_:
            u = open_[_pick(potentials(v, open_), rng)]
        else:
            # all candidates used up: hop to the nearest unvisited vertex
            u = int(np.argmin(np.where(visited, np.inf, d[v])))
        order[i] = u
        visited[u] = True
        v = u
    return order


def _refuse(rule: str, u: int, v: int) -> None:
    """Called by :func:`_sample_action` each time one of its three rules
    refuses the edge ``(u, v)``; the tests replace it to count them."""


def _sample_action(
    state: MctsState, rng: np.random.Generator
) -> tuple[tuple[int, ...], np.ndarray, float] | None:
    """Sample one k-opt action; updates ``M`` and ``Q``.

    Returns ``(vertices, order, length)``: the action's vertex tuple, the
    resulting tour and its closed length; or ``None`` when the anchor admits
    no extension at all.

    The oracle of ``kopt_sample`` in ``_kopt.c``: the tests below hold the
    kernel to it sample by sample.

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
    cur = state.current

    a1 = int(rng.integers(n))
    i0 = int(np.flatnonzero(cur == a1)[0])
    order = np.concatenate((cur[i0:], cur[:i0]))
    iota = np.arange(n)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = iota

    pos_of = pos.item
    at = order.item
    # the dense matrix pins the kernel's distances to numpy's bit for bit
    dist = distance_matrix(state.instance).item
    cand_lists = state.candidates.tolist()
    potentials = scorer(state)
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
                _refuse("deleted chord", b, c)
                continue
            if added:
                p = at(j - 1)
                if (p * n + c if p < c else c * n + p) in added:
                    _refuse("added edge", p, c)
                    continue
            feasible.append(c)
        if not feasible:
            # dead end: close with what we have, unless the closing edge
            # (b, a1) would recreate a deleted edge (at k=1 it always would)
            if k >= 2:
                if (a1 * n + b if a1 < b else b * n + a1) not in deleted:
                    break
                _refuse("blocked close", a1, b)
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
        if length < c0 or k >= max_depth:
            if closeable:
                break
            _refuse("blocked close", a1, b)
        if k >= max_depth:
            return None

    seq.append(a1)
    Q = state.Q
    for t in range(1, len(seq) - 1, 2):
        u, v = seq[t], seq[t + 1]
        Q[u, v] += 1
        Q[v, u] += 1
    state.M += 1
    return tuple(seq), order, length


def _run_python(
    state: MctsState,
    rng: np.random.Generator,
    fails: int,
    stagnation: int,
    max_actions: int | None,
    seconds: float,
) -> tuple[int, int, tuple[tuple[int, ...], np.ndarray, float] | None]:
    """Sample until an event; returns ``(event, fails, sample)``.

    The oracle of ``kopt_run`` in ``_kopt.c``, which solves run (see
    ``_kopt.bind``), with the same events.  Before each sample it returns
    ``_kopt.CAP`` once ``state.M`` reaches ``max_actions`` (``None``: no
    cap), then ``_kopt.TIME`` once ``seconds`` have passed since the call.
    A sample whose incremental length beats ``state.current_length``
    returns ``_kopt.CANDIDATE``, uncounted; every other sample counts a
    fail, and ``fails`` reaching ``stagnation`` returns
    ``_kopt.STAGNATION``.  ``sample`` is the :func:`_sample_action` result
    of the call's last sample, ``None`` when the call drew none or its last
    was a dead end.
    """
    stop = time.perf_counter() + seconds
    res = None
    while True:
        if max_actions is not None and state.M >= max_actions:
            return _kopt.CAP, fails, res
        if time.perf_counter() >= stop:
            return _kopt.TIME, fails, res
        res = _sample_action(state, rng)
        if res is not None and res[2] < state.current_length:
            return _kopt.CANDIDATE, fails, res
        fails += 1
        if fails >= stagnation:
            return _kopt.STAGNATION, fails, res


def _subprocess_env(tmp_path) -> dict:
    src = str(Path(_kopt.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=src, XDG_CACHE_HOME=str(tmp_path / "cache"))


def _parity_state(n, k, heatmap, alpha, max_depth, seed=0):
    inst = generate_instances(n, 1, seed=seed)[0]
    h = {
        "softdist": lambda: softdist(inst, default_tau(n)),
        "zeros": lambda: zeros_heatmap(n),
        "sparse": lambda: _nearest_pair_heatmap(inst),
    }[heatmap]()
    params = MctsParams(time_budget=1.0, seed=seed, alpha=alpha, k=k, max_depth=max_depth)
    return init_state(inst, h, params)


def _twin_states(n, k, heatmap, alpha, max_depth, seed=0):
    """Two equal states, the first on the Python run loop, the second on the kernel."""
    py, c = (_parity_state(n, k, heatmap, alpha, max_depth, seed) for _ in range(2))
    py._run = _run_python
    return py, c


def _warm(state, rng, samples=60):
    """Sample on the kernel and reward every fifth action drawn, so that
    ``M``, ``Q`` and ``W`` all move off their initial values."""
    w0 = state.W.copy()
    actions = [a for a in (sample_kopt(state, rng) for _ in range(samples)) if a is not None]
    for action in actions[::5]:
        backpropagate(state, 1.0, 0.99, action)
    # with one candidate per vertex a small tour may admit no action at all
    if state.candidates.shape[1] > 1:
        assert state.M > 0 and state.Q.any() and not np.array_equal(state.W, w0)


def _rng_state(rng) -> str:
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist)


def _same_report(a, b):
    """Two ``_run`` results report the same event, fails and last sample."""
    assert a[:2] == b[:2]
    assert (a[2] is None) == (b[2] is None)
    if a[2] is not None:
        assert a[2][0] == b[2][0]
        assert np.array_equal(a[2][1], b[2][1])
        assert repr(a[2][2]) == repr(b[2][2])


def _accept(py, c, a, b):
    """Accept a candidate on both states as a solve does, so W, the row sums
    and the tour move."""
    for state, (vertices, order, length) in ((py, a[2]), (c, b[2])):
        backpropagate(state, state.current_length, length, vertices)
        state._set_current(order, length)


def _step_both(py, c, rng_py, rng_c):
    """One ``_run`` step on each state, the call ``sample_kopt`` makes; both
    must return and leave the same.  Returns the Python sample."""
    a = py._run(py, rng_py, 0, 1, None, math.inf)
    b = c._run(c, rng_c, 0, 1, None, math.inf)
    assert c._run is not _run_python
    _same_report(a, b)
    assert py.M == c.M
    assert np.array_equal(py.Q, c.Q)
    assert _rng_state(rng_py) == _rng_state(rng_c)
    if a[0] == _kopt.CANDIDATE:
        _accept(py, c, a, b)
    return a[2]


def _sample_parity(n, k):
    """80 ``_run`` steps on twin states for each of ``PARITY_CASES``."""
    for case, (heatmap, alpha, depth, fresh) in enumerate(PARITY_CASES):
        py, c = _twin_states(n, k, heatmap, alpha, depth, seed=n + case)
        rng_py, rng_c = rng_for(case, 0, "parity"), rng_for(case, 0, "parity")
        for i in range(80):
            if fresh:
                # the kernel reads the generator on every call, not once per state
                rng_py, rng_c = rng_for(case, i, "parity"), rng_for(case, i, "parity")
            _step_both(py, c, rng_py, rng_c)
        assert np.array_equal(py.W, c.W) and np.array_equal(py.current, c.current)


def _run_parity(py, c, rng_py, rng_c):
    """``kopt_run`` against ``_run_python`` until 600 actions: the same
    events, fails, last samples and counters on every event, accepting
    candidates as a solve does.  Returns the events."""
    fails, events = 0, []
    while True:
        a = py._run(py, rng_py, fails, 25, 600, math.inf)
        b = c._run(c, rng_c, fails, 25, 600, math.inf)
        assert c._run is not _run_python
        _same_report(a, b)
        assert py.M == c.M and np.array_equal(py.Q, c.Q)
        assert _rng_state(rng_py) == _rng_state(rng_c)
        event, fails, _ = a
        events.append(event)
        if event == _kopt.CAP:
            return events
        if event == _kopt.CANDIDATE:
            _accept(py, c, a, b)
            fails = 0
        elif event == _kopt.STAGNATION:
            fails = 0


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1


def _pcg64(word32: int, word64: int | None = None) -> np.random.Generator:
    """A PCG64 generator whose next 32-bit word is ``word32`` and, when
    given, whose 64-bit output after that is ``word64``."""
    rng = np.random.Generator(np.random.PCG64(0))
    st = rng.bit_generator.state
    # next_uint32 first hands out the buffered half of the last 64-bit output
    st["has_uint32"], st["uinteger"] = 1, word32
    if word64 is not None:
        # a step multiplies and adds inc, then outputs rotr(hi ^ lo, hi >> 58)
        # of the new state: fix hi, solve for lo, and undo the step
        hi = 0x0123456789ABCDEF
        rot = hi >> 58
        x = ((word64 << rot) | (word64 >> (64 - rot))) & _MASK64
        after = (hi << 64) | (x ^ hi)
        inc = st["state"]["inc"]
        st["state"]["state"] = ((after - inc) * pow(_PCG64_MULT, -1, 1 << 128)) & _MASK128
    rng.bit_generator.state = st
    if word64 is not None:
        check = np.random.PCG64(0)
        check.state = st
        assert int(check.random_raw()) == word64
    return rng


PARITY_SIZES = [4, 5, 7, 50, 100, 300]

# (heatmap, alpha, max_depth, a fresh generator per call)
PARITY_CASES = [
    ("softdist", 1.0, 40, False),
    ("zeros", 0.0, 2, True),
    ("sparse", 0.0, 40, True),
    ("sparse", 1.0, 2, False),
]


class TestCompiledSampler:
    """The compiled sampler (``_kopt.c``) against the Python one, its oracle."""

    @pytest.mark.parametrize("k", ["1", "5", "n-1"])
    @pytest.mark.parametrize("n", PARITY_SIZES)
    def test_parity_sample_by_sample(self, n, k):
        _sample_parity(n, n - 1 if k == "n-1" else int(k))

    def test_parity_sweep_refuses_by_every_rule(self, monkeypatch):
        # the kernel replaces each of the oracle's three set-based rules with
        # a test on the working tour's positions: the sweep above must reach
        # every one of them, or its parity says nothing about that rule
        refused = Counter()
        # the oracle reports through this module's _refuse
        monkeypatch.setitem(globals(), "_refuse", lambda rule, u, v: refused.update([rule]))
        for n in PARITY_SIZES:
            for k in (1, 5, n - 1):
                _sample_parity(n, k)
        assert set(refused) == {"deleted chord", "added edge", "blocked close"}, refused

    def test_draw_below_rejection_loop(self):
        # a first word of 0 leaves 0 in the low half of word * n, below
        # numpy's threshold 2**32 % n (96 for n = 100): the anchor draw is
        # rejected and drawn again from the next word
        probe = _pcg64(0)
        probe.integers(100)
        assert probe.bit_generator.state["has_uint32"] == 1  # a second word was drawn
        py, c = _twin_states(100, 5, "softdist", 1.0, 10, seed=4)
        rng_py, rng_c = _pcg64(0), _pcg64(0)
        for _ in range(20):
            _step_both(py, c, rng_py, rng_c)

    def test_pick_on_a_cumulative_sum(self, monkeypatch):
        # rng.random() * total lands exactly on a cumulative sum of the first
        # pick: bisect_right, and so the kernel, take the next index
        anchor_word = 123456789  # accepted at once: (word * 50) % 2**32 >= 50
        seen, pick = [], _pick
        # the oracle below draws through this module's _pick
        monkeypatch.setitem(globals(), "_pick", lambda z, rng: seen.append(z) or pick(z, rng))
        probe, _ = _twin_states(50, 5, "softdist", 1.0, 10, seed=5)
        _sample_action(probe, _pcg64(anchor_word))
        monkeypatch.undo()
        cum = list(accumulate(seen[0]))
        total = cum[-1]
        hits = [
            (k, m)
            for m in range(len(cum) - 1)
            for k in range(round(cum[m] / total * 2**53) - 4, round(cum[m] / total * 2**53) + 5)
            if k / 2**53 * total == cum[m]
        ]
        assert hits, cum
        k, m = hits[0]
        assert _pick(seen[0], _pcg64(anchor_word, k << 11)) == m + 1
        py, c = _twin_states(50, 5, "softdist", 1.0, 10, seed=5)
        rng_py, rng_c = _pcg64(anchor_word, k << 11), _pcg64(anchor_word, k << 11)
        for _ in range(20):
            _step_both(py, c, rng_py, rng_c)

    @pytest.mark.parametrize("case", range(len(PARITY_CASES)))
    def test_run_parity_event_by_event(self, case):
        heatmap, alpha, depth, _ = PARITY_CASES[case]
        py, c = _twin_states(60, 5, heatmap, alpha, depth, seed=case)
        events = _run_parity(py, c, rng_for(case, 0, "run"), rng_for(case, 0, "run"))
        assert py.M == 600 and _kopt.STAGNATION in events
        # depth-2 actions are 2-opt moves, which cannot improve the 2-opt start
        assert (_kopt.CANDIDATE in events) == (depth > 2)

    @pytest.mark.parametrize("depth", ["n", "2n"])
    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_run_parity_on_tiny_tours(self, n, depth, monkeypatch):
        # every vertex a candidate and actions as deep as the tour: the
        # kernel's adjacency test must see the wrap-around edge between the
        # last and first positions of the working tour, a gap of n - 1
        gaps = Counter()

        def refuse(rule, u, v):
            pos = py.current.tolist()
            gaps[rule, abs(pos.index(u) - pos.index(v))] += 1

        # the oracle reports through this module's _refuse
        monkeypatch.setitem(globals(), "_refuse", refuse)
        for case, (heatmap, alpha, _, _) in enumerate(PARITY_CASES):
            py, c = _twin_states(n, n - 1, heatmap, alpha, n if depth == "n" else 2 * n,
                                 seed=n + case)
            _run_parity(py, c, rng_for(case, n, "tiny"), rng_for(case, n, "tiny"))
            assert py.M == 600
        assert gaps["deleted chord", n - 1] > 0, gaps

    def test_construct_parity(self, monkeypatch):
        # kopt_construct against _construct_order on warmed states, construct
        # by construct; the sweep reaches both of the oracle's fallbacks
        totals, hops, pick = [], 0, _pick
        # the oracle below draws through this module's _pick
        monkeypatch.setitem(
            globals(), "_pick", lambda z, rng: totals.append(sum(z)) or pick(z, rng)
        )
        for n in (4, 5, 7, 50, 100, 300):
            for k in (1, 5, n - 1):
                for case, (heatmap, alpha, _, _) in enumerate(PARITY_CASES):
                    state = _parity_state(n, k, heatmap, alpha, 10, seed=n + case)
                    _warm(state, rng_for(case, n, "warm"))
                    cand = state.candidates.tolist()
                    rng_py, rng_c = rng_for(case, n, "construct"), rng_for(case, n, "construct")
                    for _ in range(5):
                        got = construct_tour(state, rng_c).order
                        want = _construct_order(state, rng_py)
                        assert np.array_equal(got, want), (n, k, case)
                        assert _rng_state(rng_c) == _rng_state(rng_py)
                        # a step to a vertex off the candidate list is a hop
                        hops += sum(int(b) not in cand[a] for a, b in zip(want, want[1:]))
        assert hops > 0
        # the uniform draw on a row whose potentials sum to zero
        assert 0.0 in totals

    def test_wall_budget_bounds_the_run(self):
        # README criterion 6 under the run loop: no cap, many restarts,
        # checkpoints up to the budget.  A restart's construction is not
        # bounded by the deadline, so the budget is long enough for 5% of it
        # to cover one that starts just before the end.
        inst = generate_instances(200, 1, seed=15)[0]
        params = MctsParams(time_budget=1.0, seed=15, stagnation_limit=30)
        cps = [0.1, 0.25, 0.5, 1.0]
        result = mcts_solve(inst, softdist(inst, default_tau(200)), params, checkpoints=cps)
        assert result.elapsed <= 1.05 * params.time_budget
        assert [t for t, _ in result.trace] == cps
        lengths = [length for _, length in result.trace]
        assert all(b <= a for a, b in zip(lengths, lengths[1:]))
        assert lengths[-1] == result.best_length
        assert result.actions_sampled > 0 and result.restarts > 0

    def test_load_raises_on_a_layout_mismatch(self, monkeypatch):
        # a ctypes mirror that no longer matches its C struct is a failed load

        class Wider(ctypes.Structure):
            _fields_ = [*_kopt._Context._fields_, ("extra", ctypes.c_int64)]

        monkeypatch.setattr(_kopt, "_Context", Wider)
        monkeypatch.setattr(_kopt, "_kernel", None)
        with pytest.raises(OSError, match="kopt_ctx"):
            _kopt.load()
        with pytest.raises(OSError, match="kopt_ctx"):
            _golden_solve("zeros")

    def test_kernel_compiles_without_warnings(self, tmp_path):
        # with the build flags, and under strict ISO C99 as the header claims
        cc = shutil.which("cc") or shutil.which("gcc")
        for flags in (_kopt.CFLAGS, (*_kopt.CFLAGS, "-std=c99", "-pedantic")):
            done = subprocess.run(
                [cc, *flags, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "k.so"),
                 str(_kopt.SOURCE), "-lm"],
                capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, (flags, done.stderr)

    def test_buffers_grow_with_max_depth(self):
        # max_depth has no upper bound: actions far longer than any fixed
        # C array must still match
        py, c = _twin_states(100, 99, "zeros", 1.0, 10**4, seed=3)
        rng_py, rng_c = rng_for(3, 0, "long"), rng_for(3, 0, "long")
        samples = [_step_both(py, c, rng_py, rng_c) for _ in range(10)]
        longest = max((len(a[0]) // 2 for a in samples if a), default=0)
        assert longest >= 90

    def test_context_is_bound_once_per_state(self, monkeypatch):
        bound = []
        real = _kopt.bind
        monkeypatch.setattr(_kopt, "bind", lambda state: bound.append(state) or real(state))
        state = _state(n=30, seed=3)
        for i in range(50):
            sample_kopt(state, rng_for(3, i, "bind"))
        assert bound == [state]

    @pytest.mark.parametrize("compiled", [False, True], ids=["python", "compiled"])
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_on_both_samplers(self, name, compiled, monkeypatch):
        # python: whole solves with the oracle run loop and restart
        # construction bound in the kernel's place
        if not compiled:
            monkeypatch.setattr(_kopt, "bind", lambda state: (_run_python, _construct_order))
        assert _golden_solve(name) == GOLDEN[name]

    def test_load_raises_without_a_compiler(self, tmp_path, monkeypatch):
        # no compiler and an empty cache: the error names what failed in each
        # directory tried, and nothing is left behind
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        monkeypatch.setattr(shutil, "which", lambda name: None)
        monkeypatch.setattr(_kopt, "_kernel", None)
        with pytest.raises(OSError, match="no C compiler") as raised:
            _kopt.load()
        for d in _kopt._cache_dirs():
            assert f"{d}: no C compiler (cc or gcc) on PATH" in str(raised.value)
        with pytest.raises(OSError, match="no C compiler"):
            _golden_solve("zeros")
        assert not list(tmp_path.rglob("*.so"))

    def test_load_refuses_directories_of_another_user(self, tmp_path, monkeypatch):
        # a library planted by another user would run with this user's rights:
        # a cache directory not owned by the caller is never loaded from
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        monkeypatch.setattr(os, "getuid", lambda uid=os.getuid(): uid + 1)
        monkeypatch.setattr(_kopt, "_kernel", None)
        with pytest.raises(OSError, match="belongs to another user") as raised:
            _kopt.load()
        dirs = _kopt._cache_dirs()
        assert len(dirs) == 2
        for d in dirs:
            assert f"{d}: {d} belongs to another user" in str(raised.value)
        assert not list(tmp_path.rglob("*.so"))

    @pytest.mark.parametrize("mode", [0o777, 0o770], ids=["777", "770"])
    def test_load_refuses_a_directory_others_can_write(self, mode, tmp_path, monkeypatch):
        # there another user could plant or replace the library: the kernel
        # is built in the private directory under the temp dir instead
        shared = tmp_path / "cache" / "tsplab"
        shared.mkdir(parents=True)
        shared.chmod(mode)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        monkeypatch.setattr(_kopt, "_kernel", None)
        _kopt.load()
        built = tmp_path / "tmp" / f"tsplab-{os.getuid()}" / _kopt.library_name()
        assert list(tmp_path.rglob("*.so")) == [built]
        # a cache the fallback cannot reach either fails, naming the mode
        (tmp_path / "tmp" / f"tsplab-{os.getuid()}").chmod(mode)
        monkeypatch.setattr(_kopt, "_kernel", None)
        with pytest.raises(OSError) as raised:
            _kopt.load()
        for d in _kopt._cache_dirs():
            assert f"{d}: {d} can be written by other users" in str(raised.value)

    def test_relative_cache_home_is_ignored(self, tmp_path, monkeypatch):
        # the XDG spec says a relative XDG_CACHE_HOME is invalid: it must not
        # put the library under the working directory
        monkeypatch.setenv("XDG_CACHE_HOME", "relcache")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(Path, "home", lambda: tmp_path / "home")
        assert _kopt._cache_dirs()[0] == tmp_path / "home" / ".cache" / "tsplab"

    def test_load_falls_back_to_the_temp_dir(self, tmp_path, monkeypatch):
        # a cache home below a regular file cannot be made: the kernel is
        # built in the private directory under the temp dir instead
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file" / "cache"))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        monkeypatch.setattr(_kopt, "_kernel", None)
        _kopt.load()
        built = tmp_path / "tmp" / f"tsplab-{os.getuid()}" / _kopt.library_name()
        assert list(tmp_path.rglob("*.so")) == [built]

    def test_loads_through_ctypes_without_cffi(self, tmp_path):
        # numpy stays the only dependency
        pyproject = Path(_kopt.__file__).resolve().parents[2] / "pyproject.toml"
        if pyproject.is_file():
            assert 'dependencies = ["numpy>=1.24"]\n' in pyproject.read_text()
        code = ("import sys; sys.modules['cffi'] = None\n"
                "from tsplab import _kopt; _kopt.load()")
        done = subprocess.run([sys.executable, "-W", "error", "-c", code],
                              env=_subprocess_env(tmp_path), capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr

    def test_concurrent_builds_leave_one_library(self, tmp_path):
        code = "from tsplab import _kopt; _kopt.load()"
        procs = [
            subprocess.Popen([sys.executable, "-W", "error", "-c", code],
                             env=_subprocess_env(tmp_path), stderr=subprocess.PIPE, text=True)
            for _ in range(2)
        ]
        errors = [p.communicate(timeout=120)[1] for p in procs]
        assert [p.returncode for p in procs] == [0, 0], errors
        cache = tmp_path / "cache" / "tsplab"
        assert [p.name for p in cache.iterdir()] == [_kopt.library_name()]
        lib = ctypes.CDLL(str(cache / _kopt.library_name()))
        # one sampler entry point, the restart tour and one struct cross the boundary
        assert all(hasattr(lib, name) for name in
                   ("kopt_run", "kopt_construct", "kopt_two_opt", "kopt_sizeof_ctx"))
        assert not hasattr(lib, "kopt_sample") and not hasattr(lib, "kopt_sizeof_run")
