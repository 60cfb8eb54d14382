import itertools
import math
import time

import numpy as np
import pytest

from tsplab import _kopt
from tsplab.geometry import (
    BRUTE_FORCE_MAX_N,
    Tour,
    TspInstance,
    UnsupportedSizeError,
    brute_force_optimal,
    cycle_length,
    distance_matrix,
    generate_instances,
    is_permutation,
    rng_for,
    tour_length,
    two_opt,
)
from tsplab.heatmap import softdist
from tsplab.mcts import MctsParams, construct_tour, init_state

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _inst(points) -> TspInstance:
    return TspInstance(np.asarray(points, dtype=np.float64))


class TestInstanceValidation:
    def test_accepts_unit_square_corners(self):
        inst = _inst(SQUARE)
        assert inst.n == 4

    def test_rejects_out_of_range_coordinate(self):
        with pytest.raises(ValueError):
            _inst([[0.0, 0.0], [1.5, 0.5]])
        with pytest.raises(ValueError):
            _inst([[-0.1, 0.0], [0.5, 0.5]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            _inst([[0.0, np.nan], [0.5, 0.5]])

    def test_rejects_too_small_or_misshapen(self):
        with pytest.raises(ValueError):
            _inst([[0.5, 0.5]])
        with pytest.raises(ValueError):
            TspInstance(np.zeros((3, 3)))

    def test_rejects_coincident_points(self):
        # no tour of such an instance has a positive length
        for n in (2, 5):
            with pytest.raises(ValueError, match="two distinct points"):
                _inst([[0.5, 0.5]] * n)
        # a repeated point is fine while another point differs
        assert _inst([[0.5, 0.5], [0.5, 0.5], [0.5, 0.25]]).n == 3

    def test_content_key_tracks_content(self):
        a = _inst([[0.1, 0.2], [0.3, 0.4]])
        b = _inst([[0.1, 0.2], [0.3, 0.4]])
        c = _inst([[0.1, 0.2], [0.3, 0.5]])
        assert a.content_key() == b.content_key()
        assert a.content_key() != c.content_key()


class TestGenerateInstances:
    def test_count_size_and_range(self):
        instances = generate_instances(500, 1024, seed=1234)
        assert len(instances) == 1024
        for inst in instances[:8] + instances[-8:]:
            assert inst.points.shape == (500, 2)
            assert inst.points.min() >= 0.0 and inst.points.max() <= 1.0

    def test_deterministic(self):
        a = generate_instances(20, 5, seed=7)
        b = generate_instances(20, 5, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x.points, y.points)

    def test_per_index_determinism(self):
        # instance k depends only on (seed, k), not on the batch size
        long = generate_instances(12, 6, seed=42)
        short = generate_instances(12, 2, seed=42)
        for x, y in zip(short, long):
            assert np.array_equal(x.points, y.points)

    def test_seed_changes_instances(self):
        a = generate_instances(10, 1, seed=0)[0]
        b = generate_instances(10, 1, seed=1)[0]
        assert not np.array_equal(a.points, b.points)

    def test_minimum_size(self):
        inst = generate_instances(2, 1, seed=0)[0]
        assert inst.n == 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_instances(1, 1, seed=0)
        with pytest.raises(ValueError):
            generate_instances(5, 0, seed=0)


class TestRngFor:
    def test_same_key_same_stream(self):
        a = rng_for(9, 3, "x").random(16)
        b = rng_for(9, 3, "x").random(16)
        assert np.array_equal(a, b)

    def test_distinct_keys_distinct_streams(self):
        base = rng_for(9, 3, "x").random(16)
        assert not np.array_equal(base, rng_for(9, 4, "x").random(16))
        assert not np.array_equal(base, rng_for(9, 3, "y").random(16))
        assert not np.array_equal(base, rng_for(8, 3, "x").random(16))


class TestDistanceMatrix:
    def test_unit_pair(self):
        d = distance_matrix(_inst([[0.0, 0.0], [1.0, 0.0]]))
        assert d[0, 1] == 1.0
        assert d[0, 0] == 0.0

    def test_three_four_five(self):
        d = distance_matrix(_inst([[0.0, 0.0], [0.3, 0.4]]))
        assert abs(d[0, 1] - 0.5) < 1e-12

    def test_matches_elementwise_recomputation(self):
        inst = generate_instances(10, 1, seed=3)[0]
        d = distance_matrix(inst)
        for i in range(10):
            for j in range(10):
                ref = math.hypot(*(inst.points[i] - inst.points[j]))
                assert abs(d[i, j] - ref) < 1e-12

    def test_symmetric_zero_diagonal(self):
        for seed in range(5):
            d = distance_matrix(generate_instances(17, 1, seed=seed)[0])
            assert np.array_equal(d, d.T)
            assert np.all(np.diagonal(d) == 0.0)

    @pytest.mark.parametrize("n", [2, 17, 100, 1000])
    def test_bitwise_equals_norm_of_differences(self, n):
        # the former formula, kept as the oracle: the norm of the (n, n, 2)
        # difference array
        def norm_of_differences(pts):
            return np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)

        for seed in range(4):
            rng = rng_for(seed, n, "distance")
            uniform = rng.random((n, 2))
            # about a third of the coordinates on the 0/1 edges of the square
            edges = uniform.copy()
            snap = rng.random((n, 2)) < 0.3
            edges[snap] = rng.integers(0, 2, int(snap.sum()))
            # the first n // 2 + 1 points twice
            duplicates = np.concatenate([uniform, uniform[: n // 2 + 1]])
            for pts in (uniform, edges, duplicates):
                if (pts == pts[0]).all():
                    continue
                got = distance_matrix(_inst(pts))
                want = norm_of_differences(pts)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestTourLength:
    def test_unit_square(self):
        length = tour_length(_inst(SQUARE), Tour(np.arange(4)))
        assert abs(length - 4.0) < 1e-12

    def test_two_points_both_ways(self):
        length = tour_length(_inst([[0.0, 0.0], [0.5, 0.0]]), Tour(np.array([0, 1])))
        assert abs(length - 1.0) < 1e-12

    def test_triangle_any_order(self):
        inst = _inst([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        expected = 2.0 + math.sqrt(2.0)
        for perm in itertools.permutations(range(3)):
            assert abs(tour_length(inst, Tour(np.array(perm))) - expected) < 1e-12

    def test_rotation_and_reversal_invariance(self):
        inst = generate_instances(9, 1, seed=11)[0]
        order = rng_for(11, 0, "tour").permutation(9)
        base = tour_length(inst, Tour(order))
        for shift in range(9):
            rotated = np.roll(order, shift)
            assert abs(tour_length(inst, Tour(rotated)) - base) < 1e-9
            assert abs(tour_length(inst, Tour(rotated[::-1])) - base) < 1e-9

    @pytest.mark.parametrize("n", [2, 5, 100, 1000])
    def test_cycle_length_equals_dense_matrix_sum(self, n):
        # edge for edge the same floats as distance_matrix, summed the same way
        for seed in range(5):
            inst = generate_instances(n, 1, seed=seed)[0]
            d = distance_matrix(inst)
            order = rng_for(seed, n, "cycle").permutation(n)
            length = cycle_length(inst.points, order)
            assert length == float(d[order, np.roll(order, -1)].sum())
            # and the former roll-and-norm form, kept as the oracle
            pts = inst.points[order]
            assert length == float(np.linalg.norm(pts - np.roll(pts, -1, axis=0), axis=1).sum())

    def test_rejects_non_permutations(self):
        inst = _inst(SQUARE)
        with pytest.raises(ValueError):
            tour_length(inst, Tour(np.array([0, 1, 1, 3])))
        with pytest.raises(ValueError):
            tour_length(inst, Tour(np.array([0, 1, 2])))


class TestTwoOpt:
    def test_uncrosses_square(self):
        inst = _inst(SQUARE)
        crossing = Tour(np.array([0, 2, 1, 3]))
        assert abs(tour_length(inst, crossing) - (2.0 + 2.0 * math.sqrt(2.0))) < 1e-12
        improved = two_opt(inst, crossing)
        assert abs(tour_length(inst, improved) - 4.0) < 1e-12

    def test_fixpoint(self):
        inst = generate_instances(15, 1, seed=5)[0]
        first = two_opt(inst, Tour(rng_for(5, 0, "t").permutation(15)))
        second = two_opt(inst, first)
        assert np.array_equal(first.order, second.order)

    def test_never_worse(self):
        for seed in range(100):
            inst = generate_instances(8, 1, seed=seed)[0]
            tour = Tour(rng_for(seed, 0, "2opt").permutation(8))
            before = tour_length(inst, tour)
            after = two_opt(inst, tour)
            assert is_permutation(after.order, 8)
            assert tour_length(inst, after) <= before + 1e-12

    def test_output_is_2opt_optimal(self):
        # no single segment reversal may improve the result
        for seed in range(10):
            inst = generate_instances(7, 1, seed=seed)[0]
            order = two_opt(inst, Tour(rng_for(seed, 1, "2opt").permutation(7))).order
            base = tour_length(inst, Tour(order))
            for i in range(7):
                for j in range(i + 2, 7):
                    if i == 0 and j == 6:
                        continue
                    cand = order.copy()
                    cand[i + 1 : j + 1] = cand[i + 1 : j + 1][::-1]
                    assert tour_length(inst, Tour(cand)) >= base - 1e-9


def _reference_two_opt_order(inst: TspInstance, order: np.ndarray) -> np.ndarray:
    # the dense scan kopt_two_opt replaced, kept as the exactness oracle: all
    # n x n pair deltas are recomputed after every move from the distance
    # matrix, which pins the kernel's distances to numpy's bit for bit
    d = distance_matrix(inst)
    order = np.array(order, dtype=np.int64, copy=True)
    n = order.shape[0]
    if n < 4:
        return order
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    valid = jj >= ii + 2
    valid[0, n - 1] = False
    while True:
        r = d[np.ix_(order, order)]
        edge = r[np.arange(n), (np.arange(n) + 1) % n]
        rk = np.roll(np.roll(r, -1, axis=0), -1, axis=1)
        delta = r + rk - edge[:, None] - edge[None, :]
        hits = (delta < -_kopt.IMPROVE_EPS) & valid
        if not hits.any():
            return order
        i, j = divmod(int(np.argmax(hits)), n)
        order[i + 1 : j + 1] = order[i + 1 : j + 1][::-1]


def _two_way(inst: TspInstance, start: np.ndarray) -> np.ndarray:
    """The compiled 2-opt and the dense oracle on one start; both must make
    the same moves."""
    want = _reference_two_opt_order(inst, start)
    assert np.array_equal(_kopt.two_opt(inst.points, start), want)
    return want


class TestTwoOptKernel:
    """``kopt_two_opt`` of ``_kopt.c`` against the dense oracle."""

    @pytest.mark.parametrize("n", [*range(2, 14), 20, 33, 50, 64, 100, 150, 200, 300])
    def test_random_starts(self, n):
        for seed in range(12 if n <= 13 else 3):
            inst = generate_instances(n, 1, seed=seed)[0]
            _two_way(inst, rng_for(seed, n, "kernel").permutation(n))

    @pytest.mark.parametrize("n", [5, 12, 40, 120])
    def test_duplicate_points(self, n):
        # each point twice or more: zero-length edges and tied deltas
        for seed in range(3):
            pts = rng_for(seed, n, "dup").random((n // 2, 2))[np.arange(n) % (n // 2)]
            _two_way(_inst(pts), rng_for(seed, n, "dup-start").permutation(n))

    @pytest.mark.parametrize("n", [4, 9, 60, 200])
    def test_two_optimal_start_makes_no_move(self, n):
        inst = generate_instances(n, 1, seed=n)[0]
        polished = _reference_two_opt_order(inst, rng_for(n, 0, "polished").permutation(n))
        assert np.array_equal(_two_way(inst, polished), polished)


class TestTwoOptExactness:
    def test_restart_starts_match_dense_scan(self):
        for n in (30, 120):
            inst = generate_instances(n, 1, seed=n)[0]
            state = init_state(inst, softdist(inst, 0.05), MctsParams(time_budget=1.0, seed=n))
            rng = rng_for(n, 0, "restart")
            for _ in range(4):
                _two_way(inst, construct_tour(state, rng).order)

    @pytest.mark.parametrize("n", [4, 5, 8, 13])
    def test_first_hit_in_the_wrap_around_column(self, n):
        # convex polygon visited in order but with its last two vertices
        # swapped: the only improving pair is (n-3, n-1), whose second edge
        # is the wrap-around edge back to position 0
        angle = 2.0 * np.pi * np.arange(n) / n
        inst = _inst(0.5 + 0.4 * np.c_[np.cos(angle), np.sin(angle)])
        start = np.r_[np.arange(n - 2), n - 1, n - 2]
        assert np.array_equal(_two_way(inst, start), np.arange(n))

    def test_passed_deadline_stops_after_one_move(self):
        inst = generate_instances(60, 1, seed=3)[0]
        pts = inst.points
        start = rng_for(3, 0, "deadline").permutation(60)
        got = _kopt.two_opt(pts, start, deadline=time.perf_counter())
        assert is_permutation(got, 60)
        assert cycle_length(pts, got) < cycle_length(pts, start)
        # exactly one reversal away from the start
        changed = np.flatnonzero(got != start)
        i, j = changed[0] - 1, changed[-1]
        assert np.array_equal(got[i + 1 : j + 1], start[i + 1 : j + 1][::-1])
        assert cycle_length(pts, got) > cycle_length(pts, _kopt.two_opt(pts, start))


class TestBruteForce:
    def test_square(self):
        tour, length = brute_force_optimal(_inst(SQUARE))
        assert abs(length - 4.0) < 1e-12
        assert is_permutation(tour.order, 4)

    def test_triangle_equals_perimeter(self):
        inst = _inst([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        _, length = brute_force_optimal(inst)
        assert abs(length - (2.0 + math.sqrt(2.0))) < 1e-12

    def test_two_points(self):
        inst = _inst([[0.2, 0.2], [0.2, 0.7]])
        tour, length = brute_force_optimal(inst)
        assert abs(length - 1.0) < 1e-12
        assert sorted(tour.order.tolist()) == [0, 1]

    def test_beats_full_enumeration(self):
        # on the n=8 instances the batched sums are an ulp off tour_length
        for n, seed in ((7, 123), (8, 5), (8, 6)):
            inst = generate_instances(n, 1, seed=seed)[0]
            tour, length = brute_force_optimal(inst)
            assert repr(length) == repr(tour_length(inst, tour))
            # every cycle has a rotation that starts at vertex 0
            lengths = [
                tour_length(inst, Tour(np.array((0, *p))))
                for p in itertools.permutations(range(1, n))
            ]
            assert abs(length - min(lengths)) < 1e-12

    def test_lower_bounds_other_solvers(self):
        for seed in range(8):
            n = 5 + seed % 4
            inst = generate_instances(n, 1, seed=seed)[0]
            _, opt = brute_force_optimal(inst)
            start = Tour(rng_for(seed, 2, "t").permutation(n))
            assert opt <= tour_length(inst, two_opt(inst, start)) + 1e-9

    def test_size_guard(self):
        inst = generate_instances(BRUTE_FORCE_MAX_N + 1, 1, seed=0)[0]
        with pytest.raises(UnsupportedSizeError):
            brute_force_optimal(inst)
