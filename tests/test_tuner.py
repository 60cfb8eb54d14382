import math
import random
from dataclasses import replace

import pytest

from tsplab.bench import instance_seed
from tsplab.geometry import brute_force_optimal, generate_instances
from tsplab.heatmap import softdist
from tsplab.mcts import MctsParams, mcts_solve
from tsplab.tuner import (
    GridSpec,
    TuneResult,
    default_tau,
    evaluate_tau,
    grid_search_tau,
)


class TestDefaultTau:
    def test_anchor_sizes_are_exact(self):
        assert default_tau(500) == 0.0066
        assert default_tau(1000) == 0.0051
        assert default_tau(10000) == 0.0018

    def test_decreasing_in_instance_size(self):
        sizes = [100, 500, 1000, 10000, 20000]
        taus = [default_tau(n) for n in sizes]
        assert all(b < a for a, b in zip(taus, taus[1:]))

    def test_log_log_interpolation_between_anchors(self):
        n = 707
        frac = (math.log(n) - math.log(500)) / (math.log(1000) - math.log(500))
        expected = math.exp(
            math.log(0.0066) + frac * (math.log(0.0051) - math.log(0.0066))
        )
        assert math.isclose(default_tau(n), expected, rel_tol=1e-12)

    def test_extrapolates_below_smallest_anchor(self):
        n = 100
        frac = (math.log(n) - math.log(500)) / (math.log(1000) - math.log(500))
        expected = math.exp(
            math.log(0.0066) + frac * (math.log(0.0051) - math.log(0.0066))
        )
        assert math.isclose(default_tau(n), expected, rel_tol=1e-12)
        assert 0.0115 < default_tau(100) < 0.0125

    def test_extrapolates_above_largest_anchor(self):
        n = 20000
        frac = (math.log(n) - math.log(1000)) / (math.log(10000) - math.log(1000))
        expected = math.exp(
            math.log(0.0051) + frac * (math.log(0.0018) - math.log(0.0051))
        )
        assert math.isclose(default_tau(n), expected, rel_tol=1e-12)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            default_tau(1)
        assert default_tau(2) > 0.0


class TestGridSpec:
    def test_default_grid_contents(self):
        grid = GridSpec()
        assert grid.coarse == tuple(round(0.0010 * i, 4) for i in range(1, 11))
        assert grid.refine_radius == 0.0010
        assert grid.refine_step == 0.0001

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            GridSpec(coarse=(), refine_radius=0.001, refine_step=0.0001)
        with pytest.raises(ValueError):
            GridSpec(coarse=(0.0, 0.01), refine_radius=0.001, refine_step=0.0001)
        with pytest.raises(ValueError):
            GridSpec(coarse=(0.01, 0.01), refine_radius=0.001, refine_step=0.0001)
        with pytest.raises(ValueError):
            GridSpec(coarse=(0.02, 0.01), refine_radius=0.001, refine_step=0.0001)
        with pytest.raises(ValueError):
            GridSpec(coarse=(0.01,), refine_radius=0.001, refine_step=0.001)
        with pytest.raises(ValueError):
            GridSpec(coarse=(0.01,), refine_radius=0.001, refine_step=0.0)
        with pytest.raises(ValueError, match="refine_radius must be finite"):
            GridSpec(coarse=(0.01,), refine_radius=math.inf, refine_step=0.0001)
        # a temperature's key is its value at 10 decimals: these round to
        # (0.0, 0.0), and to (0.001, 0.001, 0.002)
        with pytest.raises(ValueError, match=r"positive at 10 decimals: \(0\.0, 0\.0\)"):
            GridSpec(coarse=(0.00000000001, 0.00000000002), refine_radius=0.000000000002,
                     refine_step=0.000000000001)
        with pytest.raises(ValueError, match=r"increase at 10 decimals: \(0\.001, 0\.001, 0"):
            GridSpec(coarse=(0.00100000000001, 0.00100000000002, 0.002), refine_radius=0.001,
                     refine_step=0.0005)

    def test_step_must_be_below_radius(self):
        grid = GridSpec(coarse=(0.01,), refine_radius=0.001, refine_step=0.0009)
        assert grid.refine_step < grid.refine_radius


def _stub_evaluator(table, default=99.0):
    def stub(instances, taus, params, solve_map):
        return [table.get(round(tau, 10), default) for tau in taus]

    return stub


# the stubbed stage evaluator solves nothing, but the search refuses an empty batch
_BATCH = generate_instances(5, 1, seed=0)


class TestGridSearchStubbed:
    def test_coarse_winner_survives_flat_refinement(self, monkeypatch):
        table = {0.0010: 52.47558, 0.0070: 16.78133, 0.0100: 16.79291}
        monkeypatch.setattr("tsplab.tuner._stage_means", _stub_evaluator(table))
        grid = GridSpec(coarse=(0.0010, 0.0070, 0.0100), refine_radius=0.0002, refine_step=0.0001)
        result = grid_search_tau(_BATCH, MctsParams(time_budget=1.0), grid=grid)
        assert result.best_tau == 0.0070
        taus = [t for t, _ in result.table]
        assert taus == sorted(taus)
        assert len(taus) == len(set(taus)) == 7  # 3 coarse + 4 new refine points

    def test_refinement_can_beat_the_coarse_winner(self, monkeypatch):
        table = {
            0.0010: 52.47558,
            0.0070: 16.78133,
            0.0100: 16.79291,
            0.0066: 16.78020,
        }
        monkeypatch.setattr("tsplab.tuner._stage_means", _stub_evaluator(table))
        grid = GridSpec(coarse=(0.0010, 0.0070, 0.0100), refine_radius=0.0010, refine_step=0.0001)
        result = grid_search_tau(_BATCH, MctsParams(time_budget=1.0), grid=grid)
        assert result.best_tau == 0.0066
        assert dict(result.table)[0.0066] == 16.78020

    def test_ties_break_toward_smaller_tau(self, monkeypatch):
        monkeypatch.setattr(
            "tsplab.tuner._stage_means", _stub_evaluator({0.002: 5.0, 0.004: 5.0}, default=9.0)
        )
        grid = GridSpec(coarse=(0.002, 0.004), refine_radius=0.0002, refine_step=0.0001)
        result = grid_search_tau(_BATCH, MctsParams(time_budget=1.0), grid=grid)
        assert result.best_tau == 0.002

    def test_best_is_the_table_argmin(self, monkeypatch):
        table = {0.001: 8.0, 0.003: 7.5, 0.005: 7.9}
        monkeypatch.setattr("tsplab.tuner._stage_means", _stub_evaluator(table, default=7.7))
        grid = GridSpec(coarse=(0.001, 0.003, 0.005), refine_radius=0.0004, refine_step=0.0002)
        result = grid_search_tau(_BATCH, MctsParams(time_budget=1.0), grid=grid)
        values = dict(result.table)
        assert values[result.best_tau] == min(values.values())

    def test_refine_points_stay_positive(self, monkeypatch):
        seen = []

        def stub(instances, taus, params, solve_map):
            seen.extend(taus)
            return [1.0 if tau > 0.0015 else 0.5 for tau in taus]

        monkeypatch.setattr("tsplab.tuner._stage_means", stub)
        for grid in (
            GridSpec(coarse=(0.0001, 0.01), refine_radius=0.0005, refine_step=0.0002),
            # 0.0015 - 5 * 0.0003 is 2.2e-19, whose table key rounds to 0
            GridSpec(coarse=(0.0015,), refine_radius=0.0015, refine_step=0.0003),
        ):
            seen.clear()
            grid_search_tau(_BATCH, MctsParams(time_budget=1.0), grid=grid)
            assert seen and all(t > 0.0 for t in seen)


def _parent_search(grid: GridSpec, coarse, means):
    """The stage key lists, best and table of the two-stage search, by the
    expressions ``grid_search_tau`` used before ``GridSpec`` owned its keys.

    ``coarse`` is the grid's coarse points as given, and ``means`` maps a
    stage's keys to their mean lengths.
    """
    evals, stages = {}, []

    def run(stage):
        keys = list(dict.fromkeys(k for k in stage if k not in evals))
        stages.append(keys)
        evals.update(zip(keys, means(keys)))

    run(round(t, 10) for t in coarse)
    best_coarse = min(evals.items(), key=lambda kv: (kv[1], kv[0]))[0]
    steps = int(math.floor(grid.refine_radius / grid.refine_step + 1e-9))
    refine = (round(best_coarse + i * grid.refine_step, 10) for i in range(-steps, steps + 1))
    run(k for k in refine if k > 0.0)
    best = min(evals.items(), key=lambda kv: (kv[1], kv[0]))[0]
    return stages, best, tuple(sorted(evals.items()))


def _random_grids(count, seed):
    """Grids whose points are integer multiples of a random step, so that
    refine points repeat coarse ones, carry float dust and reach 0."""
    rng = random.Random(seed)
    for _ in range(count):
        step = rng.choice((0.0001, 0.0002, 0.0003, 0.0005, 0.001, 0.0025)) * rng.choice((1, 3, 7))
        coarse = sorted({step * rng.randint(1, 12) for _ in range(rng.randint(1, 6))})
        radius = step * rng.choice((1.5, 2, 3, 10 / 3, 5))
        yield coarse, radius, step


class TestGridStageKeys:
    # coarse points as given, refine radius, refine step
    GRIDS = [
        (GridSpec().coarse, 0.0010, 0.0001),  # the default grid
        ((0.005, 0.01, 0.02, 0.04), 0.004, 0.002),  # the benchmark's tune-n50
        ((0.01, 0.02), 0.01, 0.005),  # the benchmark smoke test's
        ((0.0015,), 0.0015, 0.0003),  # a refine point of 2.2e-19
        *_random_grids(300, seed=0),
    ]

    @pytest.mark.parametrize("landscape", [7, 8, 9])
    def test_stages_and_table_match_the_parent_expressions(self, monkeypatch, landscape):
        # mean lengths rounded to 2 decimals, so that ties come up
        def mean(tau):
            return round(abs(math.sin(tau * 1000.0 * landscape)), 2)

        def means(keys):
            return [mean(k) for k in keys]

        sent = []

        def stub(instances, taus, params, solve_map):
            sent.append(list(taus))
            return means(taus)

        monkeypatch.setattr("tsplab.tuner._stage_means", stub)
        for coarse, radius, step in self.GRIDS:
            grid = GridSpec(coarse=tuple(coarse), refine_radius=radius, refine_step=step)
            sent.clear()
            result = grid_search_tau(_BATCH, MctsParams(time_budget=1.0), grid=grid)
            stages, best, table = _parent_search(grid, coarse, means)
            assert sent == stages, grid
            assert (result.best_tau, result.table) == (best, table), grid


class TestEvaluateTau:
    def test_single_instance_matches_direct_solve(self):
        inst = generate_instances(9, 1, seed=20)[0]
        params = MctsParams(time_budget=10.0, seed=3, max_actions=120)
        solo = mcts_solve(
            inst, softdist(inst, 0.02), replace(params, seed=instance_seed(3, inst))
        )
        assert evaluate_tau([inst], 0.02, params) == solo.best_length

    def test_invariant_to_instance_order(self):
        instances = generate_instances(8, 3, seed=21)
        params = MctsParams(time_budget=10.0, seed=0, max_actions=100)
        assert evaluate_tau(instances, 0.03, params) == evaluate_tau(
            instances[::-1], 0.03, params
        )

    def test_invariant_to_worker_count(self):
        instances = generate_instances(8, 3, seed=22)
        params = MctsParams(time_budget=10.0, seed=0, max_actions=100)
        assert evaluate_tau(instances, 0.03, params, workers=1) == evaluate_tau(
            instances, 0.03, params, workers=3
        )

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            evaluate_tau([], 0.01, MctsParams(time_budget=1.0))

    def test_reaches_small_optima(self):
        instances = generate_instances(6, 2, seed=23)
        optima = [brute_force_optimal(inst)[1] for inst in instances]
        value = evaluate_tau(instances, 0.05, MctsParams(time_budget=0.5, seed=0))
        assert abs(value - sum(optima) / 2.0) < 1e-9


class TestGridSearchIntegration:
    def test_small_run_is_deterministic_and_consistent(self):
        instances = generate_instances(8, 2, seed=24)
        params = MctsParams(time_budget=10.0, seed=1, max_actions=150)
        grid = GridSpec(coarse=(0.01, 0.03), refine_radius=0.005, refine_step=0.0025)
        a = grid_search_tau(instances, params, grid=grid)
        b = grid_search_tau(instances, params, grid=grid)
        assert isinstance(a, TuneResult)
        assert a == b
        values = dict(a.table)
        assert a.best_tau in values
        assert values[a.best_tau] == min(values.values())
        assert all(math.isfinite(v) and v > 0.0 for v in values.values())


class TestGridSearchDispatch:
    # coarse winner 0.01 or 0.02: either way the refine stage (best +- 0.01
    # by 0.005) repeats the other coarse point, which is not solved again
    GRID = GridSpec(coarse=(0.01, 0.02), refine_radius=0.01, refine_step=0.005)

    def _batch(self):
        return generate_instances(8, 3, seed=25), MctsParams(time_budget=10.0, seed=2,
                                                              max_actions=120)

    def test_worker_count_does_not_change_the_result(self, pool_sizes):
        instances, params = self._batch()
        serial = grid_search_tau(instances, params, grid=self.GRID, workers=1)
        parallel = grid_search_tau(instances, params, grid=self.GRID, workers=2)
        assert pool_sizes == [2]
        assert parallel == serial
        # the refine stage's five points hold both coarse points, or one and 0.0
        assert {0.01, 0.015, 0.02} <= {t for t, _ in serial.table}
        assert len(serial.table) in (4, 5)

    def test_table_matches_evaluate_tau(self):
        instances, params = self._batch()
        result = grid_search_tau(instances, params, grid=self.GRID, workers=2)
        for tau, mean in result.table:
            assert evaluate_tau(instances, tau, params) == mean

    @pytest.mark.parametrize("grid", [
        GRID,
        GridSpec(coarse=(0.005, 0.01, 0.02, 0.04), refine_radius=0.004, refine_step=0.002),
    ], ids=["2-coarse", "4-coarse"])
    def test_one_pool_per_search(self, pool_sizes, grid):
        instances, params = self._batch()
        grid_search_tau(instances, replace(params, max_actions=20), grid=grid, workers=2)
        assert pool_sizes == [2]

    def test_stage_of_48_solves_goes_in_chunks_of_6(self, pool_chunks):
        # each stage is 4 temperatures over 12 instances, as in the benchmark's
        # tune-n50: 24 rounds of one solve at 2 workers, or 4 rounds of 6
        instances = generate_instances(8, 12, seed=26)
        params = MctsParams(time_budget=10.0, seed=2, max_actions=20)
        grid = GridSpec(coarse=(0.005, 0.01, 0.02, 0.04), refine_radius=0.004,
                        refine_step=0.002)
        result = grid_search_tau(instances, params, grid=grid, workers=2)
        assert pool_chunks == [(48, 6), (48, 6)]
        assert result == grid_search_tau(instances, params, grid=grid, workers=1)

    def test_one_worker_forks_no_pool(self, pool_sizes):
        instances, params = self._batch()
        grid_search_tau(instances, replace(params, max_actions=20), grid=self.GRID)
        assert pool_sizes == []

    def test_never_forks_more_workers_than_coarse_solves(self, pool_sizes):
        instances, params = self._batch()
        grid_search_tau(instances, replace(params, max_actions=20), grid=self.GRID, workers=8)
        assert pool_sizes == [6]

    def test_bad_batch_fails_before_any_pool(self, pool_sizes):
        instances, params = self._batch()
        with pytest.raises(ValueError, match="instance list must be non-empty"):
            grid_search_tau([], params, grid=self.GRID, workers=2)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            grid_search_tau(instances, params, grid=self.GRID, workers=0)
        assert pool_sizes == []
