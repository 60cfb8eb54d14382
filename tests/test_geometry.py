import itertools
import math

import numpy as np
import pytest

from tsplab.geometry import (
    BRUTE_FORCE_MAX_N,
    Tour,
    TspInstance,
    UnsupportedSizeError,
    brute_force_optimal,
    distance_matrix,
    generate_instances,
    is_permutation,
    nearest_neighbor_tour,
    rng_for,
    tour_length,
    two_opt,
)

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

    def test_rejects_non_permutations(self):
        inst = _inst(SQUARE)
        with pytest.raises(ValueError):
            tour_length(inst, Tour(np.array([0, 1, 1, 3])))
        with pytest.raises(ValueError):
            tour_length(inst, Tour(np.array([0, 1, 2])))


class TestNearestNeighbor:
    def test_square_hand_trace(self):
        tour = nearest_neighbor_tour(_inst(SQUARE), start=0)
        assert tour.order.tolist() == [0, 1, 2, 3]
        assert abs(tour_length(_inst(SQUARE), tour) - 4.0) < 1e-12

    def test_tie_breaks_to_lowest_index(self):
        # vertices 1 and 2 are equidistant from 0
        inst = _inst([[0.5, 0.5], [0.7, 0.5], [0.3, 0.5]])
        assert nearest_neighbor_tour(inst, start=0).order.tolist() == [0, 1, 2]

    def test_two_points(self):
        inst = _inst([[0.1, 0.1], [0.9, 0.9]])
        assert nearest_neighbor_tour(inst, start=1).order.tolist() == [1, 0]

    def test_always_a_permutation(self):
        for seed in range(10):
            inst = generate_instances(13, 1, seed=seed)[0]
            assert is_permutation(nearest_neighbor_tour(inst, start=seed % 13).order, 13)

    def test_rejects_bad_start(self):
        inst = _inst(SQUARE)
        with pytest.raises(ValueError):
            nearest_neighbor_tour(inst, start=-1)
        with pytest.raises(ValueError):
            nearest_neighbor_tour(inst, start=4)


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
        inst = generate_instances(7, 1, seed=123)[0]
        tour, length = brute_force_optimal(inst)
        assert abs(tour_length(inst, tour) - length) < 1e-12
        lengths = [
            tour_length(inst, Tour(np.array(p))) for p in itertools.permutations(range(7))
        ]
        assert abs(length - min(lengths)) < 1e-12

    def test_lower_bounds_other_solvers(self):
        for seed in range(8):
            n = 5 + seed % 4
            inst = generate_instances(n, 1, seed=seed)[0]
            _, opt = brute_force_optimal(inst)
            start = Tour(rng_for(seed, 2, "t").permutation(n))
            assert opt <= tour_length(inst, two_opt(inst, start)) + 1e-9
            assert opt <= tour_length(inst, nearest_neighbor_tour(inst, start=0)) + 1e-9

    def test_size_guard(self):
        inst = generate_instances(BRUTE_FORCE_MAX_N + 1, 1, seed=0)[0]
        with pytest.raises(UnsupportedSizeError):
            brute_force_optimal(inst)
