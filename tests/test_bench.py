import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tsplab import bench
from tsplab.bench import (
    SCORE_SENTINEL,
    BenchReport,
    MctsRunSpec,
    RunRecord,
    UndefinedScoreError,
    aggregate,
    compute_gap,
    compute_score,
    instance_seed,
    make_heatmap,
    run_bench,
    run_single,
)
from tsplab.fileio import write_heatmap
from tsplab.geometry import brute_force_optimal, generate_instances
from tsplab.heatmap import softdist
from tsplab.mcts import MctsParams


def _no_solve(*args, **kwargs):
    raise AssertionError("no solve may start")


class TestComputeGap:
    def test_five_percent_excess(self):
        assert abs(compute_gap([1.05], [1.0]) - 0.05) < 1e-15

    def test_mean_of_per_instance_gaps(self):
        assert abs(compute_gap([1.02, 1.08], [1.0, 1.0]) - 0.05) < 1e-12

    def test_zero_when_equal(self):
        assert compute_gap([2.5, 3.5], [2.5, 3.5]) == 0.0

    def test_negative_when_below_reference(self):
        assert compute_gap([0.9], [1.0]) < 0.0

    def test_pairing_permutation_invariance(self):
        lengths = [3.1, 2.7, 5.9]
        refs = [3.0, 2.5, 5.5]
        perm = [2, 0, 1]
        a = compute_gap(lengths, refs)
        b = compute_gap([lengths[i] for i in perm], [refs[i] for i in perm])
        assert abs(a - b) < 1e-15

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            compute_gap([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            compute_gap([], [])
        with pytest.raises(ValueError):
            compute_gap([1.0], [0.0])
        with pytest.raises(ValueError):
            compute_gap([1.0], [-2.0])
        with pytest.raises(ValueError):
            compute_gap([float("nan")], [1.0])


class TestComputeScore:
    def test_half(self):
        assert compute_score(0.005, 0.01) == 0.5

    def test_identity(self):
        assert compute_score(0.0144, 0.0144) == 1.0

    def test_scales_linearly_in_reference_gap(self):
        assert math.isclose(compute_score(0.02, 0.01), 2 * compute_score(0.01, 0.01))

    def test_recovers_published_style_product(self):
        # a reference gap given as gap * score divides back to the score
        gap, score = 0.0103, 0.0532
        assert math.isclose(compute_score(gap * score, gap), score, rel_tol=1e-12)

    def test_nonpositive_search_gap_is_undefined(self):
        with pytest.raises(UndefinedScoreError):
            compute_score(0.01, 0.0)
        with pytest.raises(UndefinedScoreError):
            compute_score(0.01, -0.004)
        assert issubclass(UndefinedScoreError, ValueError)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            compute_score(float("inf"), 0.01)


class TestInstanceSeed:
    def test_deterministic_and_content_keyed(self):
        a, b = generate_instances(7, 2, seed=30)
        assert instance_seed(5, a) == instance_seed(5, a)
        assert instance_seed(5, a) != instance_seed(5, b)
        assert instance_seed(5, a) != instance_seed(6, a)

    def test_fits_in_63_bits(self):
        for inst in generate_instances(5, 4, seed=31):
            s = instance_seed(123456789, inst)
            assert 0 <= s < (1 << 63)


class TestMctsRunSpec:
    def test_softdist_requires_tau(self):
        params = MctsParams(time_budget=1.0)
        with pytest.raises(ValueError):
            MctsRunSpec(method="softdist", params=params)
        with pytest.raises(ValueError):
            MctsRunSpec(method="softdist", params=params, tau=-0.1)
        spec = MctsRunSpec(method="softdist", params=params, tau=0.01)
        assert spec.label() == "softdist(tau=0.01)"

    def test_softdist_tau_is_a_finite_number(self):
        params = MctsParams(time_budget=1.0)
        for bad in (True, math.nan, math.inf):
            with pytest.raises(ValueError):
                MctsRunSpec(method="softdist", params=params, tau=bad)

    def test_zeros_refuses_tau_and_path(self):
        params = MctsParams(time_budget=1.0)
        with pytest.raises(ValueError):
            MctsRunSpec(method="zeros", params=params, tau=0.01)
        with pytest.raises(ValueError):
            MctsRunSpec(method="zeros", params=params, heatmap_path="x.hmap")
        assert MctsRunSpec(method="zeros", params=params).label() == "zeros"

    def test_external_requires_path(self):
        params = MctsParams(time_budget=1.0)
        with pytest.raises(ValueError):
            MctsRunSpec(method="external", params=params)
        spec = MctsRunSpec(method="external", params=params, heatmap_path="h.hmap")
        assert spec.label() == "external(h.hmap)"

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            MctsRunSpec(method="oracle", params=MctsParams(time_budget=1.0))


class TestRunRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunRecord(instance_id="0", method="zeros", length=0.0, elapsed=0.1, seed=1)
        with pytest.raises(ValueError):
            RunRecord(instance_id="0", method="zeros", length=1.0, elapsed=-0.1, seed=1)


class TestRunSingle:
    def test_bounded_below_by_optimum(self):
        inst = generate_instances(7, 1, seed=32)[0]
        _, opt = brute_force_optimal(inst)
        params = MctsParams(time_budget=0.2, seed=0)
        record = run_single(inst, MctsRunSpec(method="zeros", params=params), "0")
        assert record.instance_id == "0"
        assert record.method == "zeros"
        assert record.length >= opt - 1e-9
        assert record.seed == instance_seed(0, inst)
        assert record.elapsed >= 0.0

    def test_instance_id_has_no_default(self, tmp_path):
        # the id rule lives in instance_ids alone: no caller may fall back to "0"
        inst = generate_instances(6, 1, seed=36)[0]
        write_heatmap(tmp_path / "0.hmap", softdist(inst, 0.05))
        params = MctsParams(time_budget=10.0, max_actions=40)
        with pytest.raises(TypeError):
            run_single(inst, MctsRunSpec(method="zeros", params=params))
        with pytest.raises(ValueError, match="needs the instance id"):
            make_heatmap(inst, "external", heatmap_path=str(tmp_path))
        assert make_heatmap(inst, "zeros").shape == (6, 6)


class TestRunBench:
    def test_ids_follow_batch_positions(self):
        instances = generate_instances(6, 4, seed=33)
        params = MctsParams(time_budget=10.0, seed=0, max_actions=40)
        records = run_bench(instances, MctsRunSpec(method="zeros", params=params))
        assert [r.instance_id for r in records] == ["0", "1", "2", "3"]

    def test_worker_count_does_not_change_results(self):
        instances = generate_instances(8, 4, seed=34)
        spec = MctsRunSpec(
            method="softdist", params=MctsParams(time_budget=10.0, seed=2, max_actions=80), tau=0.02
        )
        serial = run_bench(instances, spec, workers=1)
        parallel = run_bench(instances, spec, workers=2)
        assert [r.length for r in serial] == [r.length for r in parallel]
        assert [r.seed for r in serial] == [r.seed for r in parallel]

    def test_pool_forks_after_what_workers_need_is_loaded(self):
        # so that each worker inherits the sampler kernel and numpy.random
        # instead of loading them on its first solve; numpy imports
        # numpy.random lazily, so only a fresh interpreter shows it
        code = "\n".join([
            "import sys",
            "import numpy as np",
            "from tsplab import _kopt, bench",
            "from tsplab.geometry import TspInstance",
            "from tsplab.mcts import MctsParams",
            "assert _kopt._kernel is None and 'numpy.random' not in sys.modules",
            "real, seen = bench.ProcessPoolExecutor, []",
            "def pool(*args, **kwargs):",
            "    seen.append((_kopt._kernel is not None, 'numpy.random' in sys.modules))",
            "    return real(*args, **kwargs)",
            "bench.ProcessPoolExecutor = pool",
            "t = np.linspace(0.0, 6.0, 8)",
            "insts = [TspInstance(np.c_[0.5 + r * np.cos(t), 0.5 + r * np.sin(t)])"
            " for r in (0.3, 0.4)]",
            "spec = bench.MctsRunSpec(method='zeros', "
            "params=MctsParams(time_budget=10.0, max_actions=20))",
            "bench.run_bench(insts, spec, workers=2)",
            "assert seen == [(True, True)], seen",
        ])
        env = dict(os.environ, PYTHONPATH=str(Path(bench.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_external_directory_matches_in_memory_softdist(self, tmp_path):
        instances = generate_instances(8, 3, seed=35)
        tau = 0.02
        for i, inst in enumerate(instances):
            write_heatmap(tmp_path / f"{i}.hmap", softdist(inst, tau))
        params = MctsParams(time_budget=10.0, seed=4, max_actions=80)
        direct = run_bench(instances, MctsRunSpec(method="softdist", params=params, tau=tau))
        external = run_bench(
            instances,
            MctsRunSpec(method="external", params=params, heatmap_path=str(tmp_path)),
        )
        assert [r.length for r in direct] == [r.length for r in external]
        assert all(r.method == "external" for r in external)

    def test_single_file_external_heatmap(self, tmp_path):
        inst = generate_instances(6, 1, seed=36)[0]
        path = tmp_path / "one.hmap"
        write_heatmap(path, softdist(inst, 0.05))
        params = MctsParams(time_budget=10.0, seed=0, max_actions=40)
        records = run_bench(
            [inst], MctsRunSpec(method="external", params=params, heatmap_path=str(path))
        )
        assert len(records) == 1

    def test_single_heatmap_file_refuses_a_batch(self, tmp_path, monkeypatch):
        instances = generate_instances(6, 3, seed=36)
        path = tmp_path / "one.hmap"
        write_heatmap(path, softdist(instances[0], 0.05))
        spec = MctsRunSpec(
            method="external", params=MctsParams(time_budget=10.0, max_actions=40),
            heatmap_path=str(path),
        )
        monkeypatch.setattr(bench, "mcts_solve", _no_solve)
        with pytest.raises(ValueError, match="not a directory"):
            run_bench(instances, spec)

    @pytest.mark.parametrize("bad_map, error, match", [
        (lambda h: np.where(np.arange(6)[:, None] == 2, 0.0, h), ValueError, "heatmap row 2 "),
        (lambda h: np.ones((7, 7)) - np.eye(7), ValueError, "heatmap size 7 does not match"),
        (None, FileNotFoundError, "No such file"),
    ], ids=["zero-row", "wrong-size", "missing"])
    def test_bad_external_map_fails_before_any_solve(self, tmp_path, monkeypatch,
                                                     bad_map, error, match):
        instances = generate_instances(6, 3, seed=36)
        for i, inst in enumerate(instances):
            write_heatmap(tmp_path / f"{i}.hmap", softdist(inst, 0.05))
        bad = tmp_path / "1.hmap"
        if bad_map is None:
            bad.unlink()
        else:
            write_heatmap(bad, bad_map(softdist(instances[1], 0.05)))
        spec = MctsRunSpec(
            method="external", params=MctsParams(time_budget=10.0, max_actions=40),
            heatmap_path=str(tmp_path),
        )
        monkeypatch.setattr(bench, "mcts_solve", _no_solve)
        with pytest.raises(error, match=re.escape(match)) as info:
            run_bench(instances, spec)
        assert str(bad) in str(info.value)

    def test_external_size_mismatch_names_the_file(self, tmp_path):
        inst = generate_instances(6, 1, seed=36)[0]
        path = tmp_path / "seven.hmap"
        write_heatmap(path, softdist(generate_instances(7, 1, seed=36)[0], 0.05))
        spec = MctsRunSpec(
            method="external", params=MctsParams(time_budget=10.0, max_actions=40),
            heatmap_path=str(path),
        )
        with pytest.raises(ValueError, match=f"^{path}: heatmap size 7 does not match"):
            run_single(inst, spec, "0")

    def test_checkpoints_flow_into_records(self):
        instances = generate_instances(6, 2, seed=37)
        params = MctsParams(time_budget=0.06, seed=0)
        records = run_bench(
            instances, MctsRunSpec(method="zeros", params=params), checkpoints=[0.02, 0.06]
        )
        for r in records:
            assert [t for t, _ in r.trace] == [0.02, 0.06]
            assert r.trace[-1][1] == r.length

    def test_rejects_empty_and_bad_workers(self):
        params = MctsParams(time_budget=1.0)
        with pytest.raises(ValueError):
            run_bench([], MctsRunSpec(method="zeros", params=params))
        with pytest.raises(ValueError):
            run_bench(
                generate_instances(5, 1, seed=0),
                MctsRunSpec(method="zeros", params=params),
                workers=0,
            )


def _record(i, length, method="zeros"):
    return RunRecord(instance_id=str(i), method=method, length=length, elapsed=0.5, seed=i)


class TestAggregate:
    def test_gap_and_score_rows(self):
        records = [_record(0, 1.02), _record(1, 1.08)]
        refs = {"0": 1.0, "1": 1.0}
        lkh = {"0": 1.01, "1": 1.01}
        report = aggregate(records, refs, reference_lengths=lkh)
        assert abs(report.gap - 0.05) < 1e-12
        assert abs(report.gap_reference - 0.01) < 1e-12
        assert abs(report.score - 0.2) < 1e-10
        assert report.score_display == "20.00%"
        assert report.count == 2
        assert abs(report.length_mean - 1.05) < 1e-12

    def test_ratio_of_means_differs_from_mean_of_ratios(self):
        records = [_record(0, 2.2), _record(1, 0.9)]
        report = aggregate(records, {"0": 2.0, "1": 1.0})
        assert abs(report.gap - 0.0) < 1e-12
        assert abs(report.gap_ratio_of_means - (3.1 / 3.0 - 1.0)) < 1e-12

    def test_sentinel_when_search_matches_reference(self):
        records = [_record(0, 4.0)]
        report = aggregate(records, {"0": 4.0}, reference_lengths={"0": 4.2})
        assert report.gap == 0.0
        assert report.score is None
        assert report.score_display == SCORE_SENTINEL

    def test_no_score_without_reference_lengths(self):
        report = aggregate([_record(0, 1.1)], {"0": 1.0})
        assert report.gap_reference is None
        assert report.score is None
        assert report.score_display is None

    def test_missing_ids_raise(self):
        with pytest.raises(ValueError):
            aggregate([_record(0, 1.0), _record(1, 1.0)], {"0": 1.0})
        with pytest.raises(ValueError):
            aggregate([_record(0, 1.0)], {"0": 1.0}, reference_lengths={"9": 1.0})
        with pytest.raises(ValueError):
            aggregate([], {"0": 1.0})

    def test_method_label_joins_mixed_methods(self):
        records = [_record(0, 1.0), _record(1, 1.0, method="softdist")]
        report = aggregate(records, {"0": 1.0, "1": 1.0})
        assert report.method == "softdist+zeros"

    def test_to_dict_round_trips_key_fields(self):
        report = aggregate([_record(0, 1.25)], {"0": 1.0})
        d = report.to_dict()
        assert isinstance(report, BenchReport)
        assert d["count"] == 1
        assert d["gap"] == report.gap
        assert d["records"][0]["instance_id"] == "0"
        assert d["records"][0]["length"] == 1.25
