import math

import numpy as np
import pytest

from tsplab.geometry import TspInstance, distance_matrix, generate_instances
from tsplab.heatmap import (
    candidate_sets,
    softdist,
    validate_heatmap,
    zeros_heatmap,
)


def _inst(points) -> TspInstance:
    return TspInstance(np.asarray(points, dtype=np.float64))


def _equilateral() -> TspInstance:
    h = 0.6 * math.sqrt(3.0) / 2.0
    return _inst([[0.2, 0.2], [0.8, 0.2], [0.5, 0.2 + h]])


class TestSoftdist:
    def test_two_points_any_tau(self):
        inst = _inst([[0.1, 0.1], [0.8, 0.3]])
        for tau in (1e-3, 0.5, 123.0):
            h = softdist(inst, tau)
            assert np.array_equal(h, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_equilateral_triangle_is_half_everywhere(self):
        h = softdist(_equilateral(), 0.1)
        off = h[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.5, atol=1e-9)

    def test_collinear_frozen_value(self):
        # spacing 1:3 with tau = 1/3 of the unit distance puts the far
        # neighbor exactly exp(-2) below the near one
        inst = _inst([[0.0, 0.0], [1.0 / 3.0, 0.0], [1.0, 0.0]])
        h = softdist(inst, 1.0 / 3.0)
        expected = 1.0 / (1.0 + math.exp(-2.0))  # 0.8807970779778823
        assert abs(h[0, 1] - expected) < 1e-12
        assert abs(h[0, 2] - (1.0 - expected)) < 1e-12
        assert abs(h[1, 0] - 1.0 / (1.0 + math.exp(-1.0))) < 1e-12

    def test_rows_sum_to_one_and_diagonal_zero(self):
        for seed in range(5):
            inst = generate_instances(30, 1, seed=seed)[0]
            for tau in (1e-3, 1e-2, 0.1, 1.0):
                h = softdist(inst, tau)
                assert np.all(np.diagonal(h) == 0.0)
                assert np.all(h >= 0.0)
                assert np.max(np.abs(h.sum(axis=1) - 1.0)) < 1e-9

    def test_argmax_is_nearest_neighbor(self):
        for seed in range(5):
            inst = generate_instances(25, 1, seed=seed)[0]
            d = distance_matrix(inst)
            np.fill_diagonal(d, np.inf)
            for tau in (1e-3, 0.05, 1.0):
                h = softdist(inst, tau)
                assert np.array_equal(np.argmax(h, axis=1), np.argmin(d, axis=1))

    def test_low_temperature_concentration(self):
        # when (d2 - d1) / tau > 40 the nearest entry takes all the mass
        for seed in range(10):
            inst = generate_instances(20, 1, seed=seed)[0]
            d = distance_matrix(inst)
            np.fill_diagonal(d, np.inf)
            row = np.sort(d[0])
            d1, d2 = row[0], row[1]
            tau = (d2 - d1) / 41.0
            h = softdist(inst, tau)
            assert h[0, np.argmin(d[0])] >= 1.0 - 1e-12

    def test_monotone_in_distance(self):
        inst = generate_instances(15, 1, seed=9)[0]
        d = distance_matrix(inst)
        h = softdist(inst, 0.07)
        for i in range(15):
            others = [j for j in range(15) if j != i]
            by_dist = sorted(others, key=lambda j: d[i, j])
            scores = h[i, by_dist]
            assert np.all(np.diff(scores) < 0.0)

    def test_rejects_bad_tau(self):
        inst = _equilateral()
        for tau in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                softdist(inst, tau)

    def test_survives_extreme_tau(self):
        # row-min shifting keeps even absurd temperatures finite
        inst = generate_instances(10, 1, seed=1)[0]
        for tau in (1e-300, 1e300):
            h = softdist(inst, tau)
            assert np.all(np.isfinite(h))
            assert np.max(np.abs(h.sum(axis=1) - 1.0)) < 1e-9


class TestZerosHeatmap:
    def test_constant_off_diagonal(self):
        h = zeros_heatmap(3)
        off = h[~np.eye(3, dtype=bool)]
        assert np.all(off == 1e-10)
        assert np.all(np.diagonal(h) == 0.0)

    def test_validates(self):
        validate_heatmap(zeros_heatmap(5), 5)

    def test_candidates_are_lowest_indices(self):
        cs = candidate_sets(zeros_heatmap(6), 3)
        assert cs[0].tolist() == [1, 2, 3]
        assert cs[2].tolist() == [0, 1, 3]
        assert cs[5].tolist() == [0, 1, 2]

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            zeros_heatmap(1)


class TestCandidateSets:
    def test_scored_row(self):
        h = np.array(
            [
                [0.0, 0.5, 0.3, 0.2],
                [0.5, 0.0, 0.1, 0.1],
                [0.3, 0.1, 0.0, 0.1],
                [0.2, 0.1, 0.1, 0.0],
            ]
        )
        assert candidate_sets(h, 2)[0].tolist() == [1, 2]

    def test_k_at_least_n_minus_one_keeps_everyone(self):
        h = softdist(generate_instances(6, 1, seed=2)[0], 0.1)
        for k in (5, 6, 99):
            cs = candidate_sets(h, k)
            assert cs.shape == (6, 5)
            for i in range(6):
                assert sorted(cs[i].tolist()) == sorted(set(range(6)) - {i})

    def test_all_equal_scores_tie_break(self):
        h = np.full((5, 5), 0.2)
        np.fill_diagonal(h, 0.0)
        cs = candidate_sets(h, 3)
        assert cs[0].tolist() == [1, 2, 3]
        assert cs[3].tolist() == [0, 1, 2]

    def test_never_contains_self(self):
        for seed in range(5):
            h = softdist(generate_instances(12, 1, seed=seed)[0], 0.05)
            cs = candidate_sets(h, 4)
            for i in range(12):
                assert i not in cs[i]

    def test_scale_invariant(self):
        h = softdist(generate_instances(10, 1, seed=4)[0], 0.08)
        base = candidate_sets(h, 5)
        for c in (1e-6, 3.0, 1e6):
            assert np.array_equal(candidate_sets(c * h, 5), base)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            candidate_sets(zeros_heatmap(4), 0)


def _reference_candidate_sets(heatmap: np.ndarray, k: int) -> np.ndarray:
    """The lexsort ranking candidate_sets used before its stable argsort."""
    h = validate_heatmap(heatmap)
    n = h.shape[0]
    scored = h.copy()
    np.fill_diagonal(scored, -np.inf)
    ties = np.broadcast_to(np.arange(n), (n, n))
    ranked = np.lexsort((ties, -scored), axis=-1)
    return np.ascontiguousarray(ranked[:, : min(k, n - 1)].astype(np.int64))


class TestCandidateSetsExactness:
    @pytest.mark.parametrize("n", [2, 3, 50, 100, 500])
    def test_matches_lexsort_ranking(self, n):
        inst = generate_instances(n, 1, seed=n)[0]
        h = softdist(inst, 0.02)
        # rounding makes most scores of a row tie
        for heat in (h, zeros_heatmap(n), np.round(h * 20.0) / 20.0):
            for k in (1, 5, 10):
                got = candidate_sets(heat, k)
                want = _reference_candidate_sets(heat, k)
                assert got.dtype == want.dtype == np.int64
                assert np.array_equal(got, want)

    def test_does_not_keep_the_full_ranking(self):
        h = softdist(generate_instances(60, 1, seed=1)[0], 0.05)
        cs = candidate_sets(h, 5)
        assert cs.flags.c_contiguous and cs.base is None


class TestValidateHeatmap:
    def test_rejects_negative(self):
        h = zeros_heatmap(4)
        h[1, 2] = -1e-12
        with pytest.raises(ValueError):
            validate_heatmap(h)

    def test_rejects_nonzero_diagonal(self):
        h = zeros_heatmap(4)
        h[2, 2] = 0.1
        with pytest.raises(ValueError):
            validate_heatmap(h)

    def test_rejects_nonsquare_and_nan(self):
        with pytest.raises(ValueError):
            validate_heatmap(np.zeros((3, 4)))
        h = zeros_heatmap(4)
        h[0, 1] = np.nan
        with pytest.raises(ValueError):
            validate_heatmap(h)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            validate_heatmap(zeros_heatmap(4), 5)

    def test_zero_mass_row_is_named(self):
        h = zeros_heatmap(5)
        h[3, :] = 0.0
        with pytest.raises(ValueError, match="heatmap row 3 has zero total mass"):
            validate_heatmap(h)
