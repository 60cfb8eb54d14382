import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tsplab import bench, cli, tuner
from tsplab.cli import main
from tsplab.bench import RunRecord, aggregate
from tsplab.fileio import (
    parse_heatmap,
    parse_instances,
    parse_ref_lengths,
    write_heatmap,
    write_instances,
    write_ref_lengths,
)
from tsplab.geometry import brute_force_optimal, generate_instances
from tsplab.heatmap import softdist


def _no_solve(*args, **kwargs):
    raise AssertionError("no solve may start")


def _die_in_worker(*args, **kwargs):
    # module level, so that a process pool can pickle it
    os._exit(3)


def _gen(tmp_path, n=6, count=2, seed=0, name="instances.txt"):
    path = tmp_path / name
    assert main(["gen", "--n", str(n), "--count", str(count), "--seed", str(seed),
                 "--out", str(path)]) == 0
    return path


class TestTopLevel:
    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == "tsplab 0.1.0"

    def test_import_gen_and_heatmap_leave_the_kernel_alone(self, tmp_path):
        # the sampler kernel is built and loaded on the first sample only, so
        # set-up commands pay nothing for it
        out = tmp_path / "work"
        (out / "maps").mkdir(parents=True)
        code = "\n".join([
            "from tsplab import _kopt, cli",
            f"assert cli.main(['gen', '--n', '20', '--count', '2', '--out', '{out}/i.txt']) == 0",
            f"assert cli.main(['heatmap', '--in', '{out}/i.txt', '--method', 'softdist',"
            f" '--tau', '0.02', '--out', '{out}/maps']) == 0",
            "assert _kopt._kernel is None",
        ])
        (tmp_path / "tmp").mkdir()
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
                   XDG_CACHE_HOME=str(tmp_path / "cache"), TMPDIR=str(tmp_path / "tmp"))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert len(list((out / "maps").iterdir())) == 2
        assert not (tmp_path / "cache").exists()
        assert not list((tmp_path / "tmp").iterdir())

    def test_unknown_subcommand(self, capsys):
        assert main(["polish"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["gen", "--n", "5"]) == 2

    def test_no_subcommand(self, capsys):
        assert main([]) == 2


class TestGen:
    def test_writes_instances_and_manifest(self, tmp_path, capsys):
        path = _gen(tmp_path, n=7, count=3, seed=9)
        pairs = parse_instances(path)
        assert len(pairs) == 3
        assert all(inst.n == 7 for inst, _ in pairs)
        manifest = json.loads((tmp_path / "instances.txt.manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["parameters"]["n"] == 7
        assert manifest["parameters"]["seed"] == 9

    def test_seeded_runs_are_byte_identical(self, tmp_path, capsys):
        a = _gen(tmp_path, seed=5, name="a.txt")
        b = _gen(tmp_path, seed=5, name="b.txt")
        assert a.read_bytes() == b.read_bytes()

    def test_matches_library_generator(self, tmp_path, capsys):
        path = _gen(tmp_path, n=5, count=2, seed=11)
        parsed = parse_instances(path)
        direct = generate_instances(5, 2, seed=11)
        for (inst, _), orig in zip(parsed, direct):
            assert np.array_equal(inst.points, orig.points)


class TestHeatmapCmd:
    def test_single_instance_single_file(self, tmp_path, capsys):
        src = _gen(tmp_path, count=1)
        out = tmp_path / "h.hmap"
        assert main(["heatmap", "--in", str(src), "--tau", "0.05", "--out", str(out)]) == 0
        [(inst, _)] = parse_instances(src)
        assert np.array_equal(parse_heatmap(out), softdist(inst, 0.05))

    def test_many_instances_directory(self, tmp_path, capsys):
        src = _gen(tmp_path, count=3)
        out = tmp_path / "maps"
        assert main(["heatmap", "--in", str(src), "--tau", "0.02", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["0.hmap", "1.hmap", "2.hmap"]

    def test_trailing_separator_means_directory(self, tmp_path, capsys):
        src = _gen(tmp_path, count=1)
        out = tmp_path / "maps"
        assert main(["heatmap", "--in", str(src), "--tau", "0.05", "--out", f"{out}/"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["0.hmap"]
        [(inst, _)] = parse_instances(src)
        assert np.array_equal(parse_heatmap(out / "0.hmap"), softdist(inst, 0.05))
        assert (tmp_path / "maps.manifest.json").is_file()

    def test_batch_manifest_beside_directory(self, tmp_path, capsys):
        src = _gen(tmp_path, count=2)
        out = tmp_path / "maps"
        assert main(["heatmap", "--in", str(src), "--tau", "0.05", "--out", f"{out}/"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["0.hmap", "1.hmap"]
        assert (tmp_path / "maps.manifest.json").is_file()

    def test_zeros_needs_no_tau(self, tmp_path, capsys):
        src = _gen(tmp_path, count=1)
        out = tmp_path / "z.hmap"
        assert main(["heatmap", "--in", str(src), "--method", "zeros", "--out", str(out)]) == 0
        h = parse_heatmap(out)
        assert np.all(h[~np.eye(6, dtype=bool)] == 1e-10)

    def test_text_format(self, tmp_path, capsys):
        src = _gen(tmp_path, count=1)
        out = tmp_path / "h.txt"
        assert main(["heatmap", "--in", str(src), "--tau", "0.05", "--format", "text",
                     "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "6"

    def test_softdist_requires_tau(self, tmp_path, capsys):
        src = _gen(tmp_path, count=1)
        code = main(["heatmap", "--in", str(src), "--out", str(tmp_path / "h.hmap")])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_zeros_refuses_tau(self, tmp_path, capsys):
        # zeros has no temperature: a --tau would be ignored yet recorded
        src = _gen(tmp_path, count=1)
        out = tmp_path / "z.hmap"
        code = main(["heatmap", "--in", str(src), "--method", "zeros", "--tau", "0.5",
                     "--out", str(out)])
        assert code == 2
        assert "usage error: --tau" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tau", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("count", [1, 3])
    def test_bad_tau_makes_no_path(self, tmp_path, capsys, tau, count):
        # refused before --out is made: a batch used to leave an empty directory
        src = _gen(tmp_path, count=count)
        for out in (tmp_path / "maps", tmp_path / "one.hmap"):
            code = main(["heatmap", "--in", str(src), "--tau", tau, "--out", str(out)])
            assert code == 2
            assert "usage error: --tau must be a positive finite number" in capsys.readouterr().err
            assert not out.exists() and not out.with_name(f"{out.name}.manifest.json").exists()


class TestSolveCmd:
    def test_writes_lengths_csv(self, tmp_path, capsys):
        src = _gen(tmp_path, count=2)
        out = tmp_path / "lengths.csv"
        assert main(["solve", "--in", str(src), "--budget", "0.05", "--out", str(out)]) == 0
        lengths = parse_ref_lengths(out)
        assert sorted(lengths) == ["0", "1"]
        assert all(v > 0.0 for v in lengths.values())
        assert (tmp_path / "lengths.csv.manifest.json").exists()

    def test_lengths_are_optimal_for_tiny_instances(self, tmp_path, capsys):
        src = _gen(tmp_path, n=6, count=2)
        out = tmp_path / "lengths.csv"
        assert main(["solve", "--in", str(src), "--budget", "0.3", "--out", str(out)]) == 0
        lengths = parse_ref_lengths(out)
        for i, (inst, _) in enumerate(parse_instances(src)):
            _, opt = brute_force_optimal(inst)
            assert abs(lengths[str(i)] - opt) < 1e-9

    def test_trace_csv(self, tmp_path, capsys):
        src = _gen(tmp_path, count=2)
        out = tmp_path / "lengths.csv"
        trace = tmp_path / "trace.csv"
        assert main(["solve", "--in", str(src), "--budget", "0.06",
                     "--out", str(out), "--trace", str(trace),
                     "--checkpoints", "0.02,0.06"]) == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "instance_id,time_seconds,best_length"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 4  # 2 instances x 2 checkpoints
        lengths = parse_ref_lengths(out)
        for iid in ("0", "1"):
            series = [float(v) for i, _t, v in rows if i == iid]
            assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))
            assert series[-1] == lengths[iid]

    @pytest.mark.parametrize("with_out", [False, True])
    def test_trace_gets_a_manifest(self, tmp_path, capsys, with_out):
        src = _gen(tmp_path, count=1)
        out = tmp_path / "lengths.csv"
        trace = tmp_path / "trace.csv"
        argv = ["solve", "--in", str(src), "--budget", "0.05", "--max-actions", "20",
                "--trace", str(trace), "--checkpoints", "0.05"]
        assert main(argv + (["--out", str(out)] if with_out else [])) == 0
        manifest = json.loads((tmp_path / "trace.csv.manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["parameters"]["trace"] == str(trace)
        assert manifest["parameters"]["checkpoints"] == "0.05"
        if with_out:
            lengths = json.loads((tmp_path / "lengths.csv.manifest.json").read_text())
            assert manifest == lengths
        assert f"wrote traces to {trace}\n" in capsys.readouterr().out

    def test_trace_requires_checkpoints(self, tmp_path, capsys):
        src = _gen(tmp_path, count=1)
        assert main(["solve", "--in", str(src), "--budget", "0.05",
                     "--trace", str(tmp_path / "t.csv")]) == 2
        assert main(["solve", "--in", str(src), "--budget", "0.05",
                     "--checkpoints", "0.01"]) == 2

    def test_heatmap_method_conflicts(self, tmp_path, capsys):
        src = _gen(tmp_path, count=1)
        assert main(["solve", "--in", str(src), "--budget", "0.05",
                     "--method", "softdist", "--heatmap", "h.hmap"]) == 2
        assert main(["solve", "--in", str(src), "--budget", "0.05",
                     "--method", "external"]) == 2

    def test_external_heatmap_file(self, tmp_path, capsys):
        src = _gen(tmp_path, count=1)
        h = tmp_path / "h.hmap"
        assert main(["heatmap", "--in", str(src), "--tau", "0.05", "--out", str(h)]) == 0
        assert main(["solve", "--in", str(src), "--budget", "0.05",
                     "--heatmap", str(h)]) == 0
        assert "instance 0: length" in capsys.readouterr().out

    def test_single_heatmap_file_refuses_many_instances(self, tmp_path, capsys):
        src = _gen(tmp_path, count=2)
        h = tmp_path / "h.hmap"
        write_heatmap(h, softdist(parse_instances(src)[0][0], 0.05))
        capsys.readouterr()
        assert main(["solve", "--in", str(src), "--budget", "0.05",
                     "--heatmap", str(h)]) == 1
        captured = capsys.readouterr()
        assert "not a directory" in captured.err
        assert "instance 0" not in captured.out

    def test_bad_external_map_fails_before_any_solve(self, tmp_path, capsys, monkeypatch):
        src = _gen(tmp_path, count=2)
        maps = tmp_path / "maps"
        assert main(["heatmap", "--in", str(src), "--tau", "0.05", "--out", str(maps)]) == 0
        h = parse_heatmap(maps / "1.hmap")
        h[2] = 0.0
        write_heatmap(maps / "1.hmap", h)
        out = tmp_path / "lens.csv"
        monkeypatch.setattr(cli, "run_single", _no_solve)
        capsys.readouterr()
        assert main(["solve", "--in", str(src), "--heatmap", str(maps), "--budget", "2",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {maps / '1.hmap'}: heatmap row 2 ")
        assert "instance 0" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("source", ["zeros", "external"])
    def test_tau_only_with_softdist(self, tmp_path, capsys, monkeypatch, source):
        # a --tau the run would ignore fails before any solve and writes nothing
        src = _gen(tmp_path, count=1)
        h = tmp_path / "h.hmap"
        write_heatmap(h, softdist(parse_instances(src)[0][0], 0.05))
        flags = ["--method", "zeros"] if source == "zeros" else ["--heatmap", str(h)]
        out = tmp_path / "lens.csv"
        monkeypatch.setattr(cli, "run_single", _no_solve)
        capsys.readouterr()
        assert main(["solve", "--in", str(src), *flags, "--tau", "0.5", "--budget", "0.05",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: tau is only meaningful for softdist, not {source!r}\n"
        )
        assert not out.exists()

    def test_default_budget_with_action_cap(self, tmp_path, capsys):
        src = _gen(tmp_path, count=1)
        assert main(["solve", "--in", str(src), "--profile", "short",
                     "--max-actions", "30"]) == 0

    def test_checkpoints_beyond_any_budget_fail_before_any_solve(self, tmp_path, capsys,
                                                                 monkeypatch):
        # default budgets are n/10 s: 10 s for instance 0 (n=100), 2 s for
        # instance 1 (n=20), so checkpoint 5 fits only the first
        src = tmp_path / "mixed.txt"
        write_instances(src, generate_instances(100, 1, seed=0) + generate_instances(20, 1, 1))
        monkeypatch.setattr(cli, "run_single", _no_solve)
        assert main(["solve", "--in", str(src), "--checkpoints", "1,5",
                     "--trace", str(tmp_path / "trace.csv")]) == 1
        captured = capsys.readouterr()
        assert "instance 0: length" not in captured.out
        assert captured.err == (
            "error: instance 1 (budget 2s): checkpoints must not exceed the time budget\n"
        )


    def test_empty_checkpoints_fail_before_any_solve(self, tmp_path, capsys, monkeypatch):
        src = _gen(tmp_path, count=2)
        trace = tmp_path / "t.csv"
        monkeypatch.setattr(cli, "run_single", _no_solve)
        capsys.readouterr()
        assert main(["solve", "--in", str(src), "--budget", "0.05",
                     "--trace", str(trace), "--checkpoints", ""]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: instance 0 (budget 0.05s): checkpoints must be non-empty when given\n"
        )
        assert not trace.exists()


class TestTuneCmd:
    def test_small_grid_run(self, tmp_path, capsys):
        src = _gen(tmp_path, count=2)
        capsys.readouterr()
        assert main(["tune", "--in", str(src), "--budget", "10", "--max-actions", "40",
                     "--coarse", "0.01,0.03", "--refine-step", "0.0025",
                     "--refine-radius", "0.005"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "tau,mean_length"
        assert "best tau: " in out

    def test_partial_grid_flags(self, tmp_path, capsys):
        src = _gen(tmp_path, count=1)
        assert main(["tune", "--in", str(src), "--budget", "10",
                     "--coarse", "0.01,0.03"]) == 2

    @pytest.mark.parametrize("grid, code, err", [
        (["--coarse", ""], 2,
         "usage error: --coarse, --refine-step and --refine-radius go together\n"),
        (["--coarse", "", "--refine-step", "0.001", "--refine-radius", "0.002"], 1,
         "error: coarse grid must be non-empty\n"),
        (["--coarse", "0.01", "--refine-step", "0", "--refine-radius", "0.002"], 1,
         "error: need 0 < refine_step < refine_radius\n"),
        (["--coarse", "0.0015,0.003", "--refine-step", "0.0003", "--refine-radius", "inf"], 1,
         "error: refine_radius must be finite\n"),
        # temperatures are keyed at 10 decimals: these keys are 0, or repeat
        (["--coarse", "0.00000000001,0.00000000002", "--refine-step", "0.000000000001",
          "--refine-radius", "0.000000000002"], 1,
         "error: coarse temperatures must be positive at 10 decimals: (0.0, 0.0)\n"),
        (["--coarse", "0.00100000000001,0.00100000000002,0.002", "--refine-step", "0.0005",
          "--refine-radius", "0.001"], 1,
         "error: coarse temperatures must increase at 10 decimals: (0.001, 0.001, 0.002)\n"),
    ], ids=["empty-coarse-alone", "empty-coarse", "zero-step", "infinite-radius",
            "keys-round-to-zero", "keys-repeat"])
    def test_given_grid_values_reach_the_grid_checks(self, tmp_path, capsys, monkeypatch,
                                                     grid, code, err):
        # a flag given as empty or zero is given, not absent
        src = _gen(tmp_path, count=1)
        monkeypatch.setattr(cli, "grid_search_tau", _no_solve)
        capsys.readouterr()
        assert main(["tune", "--in", str(src), "--budget", "10", *grid]) == code
        assert capsys.readouterr().err == err

    def test_out_file_and_manifest(self, tmp_path, capsys):
        src = _gen(tmp_path, count=1)
        out = tmp_path / "tune.csv"
        assert main(["tune", "--in", str(src), "--budget", "10", "--max-actions", "30",
                     "--coarse", "0.01,0.03", "--refine-step", "0.0025",
                     "--refine-radius", "0.005", "--out", str(out)]) == 0
        assert out.read_text().startswith("tau,mean_length")
        manifest = json.loads((tmp_path / "tune.csv.manifest.json").read_text())
        assert manifest["command"] == "tune"


@pytest.mark.parametrize("workers", ["0", "-2"])
@pytest.mark.parametrize("command", [
    ["tune", "--budget", "10"],
    ["bench", "--spec", "spec.json", "--refs", "refs.csv"],
], ids=["tune", "bench"])
def test_workers_below_one_is_a_usage_error(tmp_path, capsys, monkeypatch, command, workers):
    # refused before any file is read: none of the named files exists
    monkeypatch.chdir(tmp_path)
    argv = command[:1] + ["--in", "instances.txt", "--workers", workers] + command[1:]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "usage error: --workers must be at least 1\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["tune", "bench"])
def test_dead_worker_is_one_error_line(tmp_path, capsys, monkeypatch, command):
    # a worker that dies mid-batch breaks the pool: a runtime failure, exit 1
    src = _gen(tmp_path, count=3)
    if command == "tune":
        monkeypatch.setattr(tuner, "run_single", _die_in_worker)
        argv = ["tune", "--in", str(src), "--budget", "10", "--coarse", "0.01,0.03",
                "--refine-step", "0.0025", "--refine-radius", "0.005"]
    else:
        refs = tmp_path / "refs.csv"
        assert main(["oracle", "--in", str(src), "--out", str(refs)]) == 0
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"method": "zeros", "params": {"time_budget": 10.0}}))
        monkeypatch.setattr(bench, "run_single", _die_in_worker)
        argv = ["bench", "--in", str(src), "--spec", str(spec), "--refs", str(refs)]
    capsys.readouterr()
    assert main(argv + ["--workers", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "terminated abruptly" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, flag", [
    (["gen", "--n", "5", "--out", ""], "--out"),
    (["heatmap", "--in", "instances.txt", "--method", "zeros", "--out", ""], "--out"),
    (["solve", "--in", "instances.txt", "--method", "zeros", "--heatmap", ""], "--heatmap"),
    (["solve", "--in", "instances.txt", "--trace", "", "--checkpoints", "0.05"], "--trace"),
    (["solve", "--in", "instances.txt", "--out", ""], "--out"),
    (["solve", "--in", ""], "--in"),
    (["tune", "--in", "instances.txt", "--budget", "10", "--out", ""], "--out"),
    (["bench", "--in", "instances.txt", "--spec", "spec.json", "--refs", "refs.csv",
      "--lkh-refs", ""], "--lkh-refs"),
    (["bench", "--in", "instances.txt", "--spec", "", "--refs", "refs.csv"], "--spec"),
    (["score", "--refs", "refs.csv", "--lengths", ""], "--lengths"),
    (["oracle", "--in", "instances.txt", "--out", ""], "--out"),
], ids=["gen", "heatmap", "solve-heatmap", "solve-trace", "solve-out", "solve-in", "tune",
        "bench-lkh-refs", "bench-spec", "score", "oracle"])
def test_empty_path_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, flag):
    # an empty path would name the working directory, or be read as no path:
    # refused before any file is read or written
    monkeypatch.chdir(tmp_path)
    _gen(tmp_path, count=1, name="instances.txt")
    before = sorted(os.listdir(tmp_path))
    for solver in ("run_single", "run_bench", "grid_search_tau"):
        monkeypatch.setattr(cli, solver, _no_solve)
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {flag} must not be empty\n"
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == before


class TestBenchCmd:
    def _setup(self, tmp_path, count=3):
        src = _gen(tmp_path, n=6, count=count)
        refs = tmp_path / "refs.csv"
        assert main(["oracle", "--in", str(src), "--out", str(refs)]) == 0
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"method": "zeros", "params": {"time_budget": 10.0, "seed": 0, "max_actions": 60}}
        ))
        return src, refs, spec

    def test_markdown_report_and_summary(self, tmp_path, capsys):
        src, refs, spec = self._setup(tmp_path)
        capsys.readouterr()
        assert main(["bench", "--in", str(src), "--spec", str(spec),
                     "--refs", str(refs)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| metric | value |")
        assert "zeros: mean length " in out
        assert "gap " in out

    def test_json_report_to_file(self, tmp_path, capsys):
        src, refs, spec = self._setup(tmp_path)
        out = tmp_path / "report.json"
        assert main(["bench", "--in", str(src), "--spec", str(spec), "--refs", str(refs),
                     "--report", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["count"] == 3
        assert payload["gap"] >= -1e-12
        assert len(payload["records"]) == 3
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert manifest["parameters"]["spec"]["method"] == "zeros"

    def test_score_with_reference_solver_lengths(self, tmp_path, capsys):
        src, refs, spec = self._setup(tmp_path)
        parsed = parse_ref_lengths(refs)
        lkh = tmp_path / "lkh.csv"
        with open(lkh, "w") as fh:
            fh.write("instance_id,length\n")
            for k, v in parsed.items():
                fh.write(f"{k},{v * 1.01!r}\n")
        assert main(["bench", "--in", str(src), "--spec", str(spec), "--refs", str(refs),
                     "--lkh-refs", str(lkh)]) == 0
        assert ", score " in capsys.readouterr().out

    def test_bad_spec_means_runtime_error(self, tmp_path, capsys):
        src, refs, spec = self._setup(tmp_path)
        spec.write_text(json.dumps({"method": "zeros"}))
        assert main(["bench", "--in", str(src), "--spec", str(spec),
                     "--refs", str(refs)]) == 1
        assert capsys.readouterr().err == f"error: {spec}: bad run spec: missing key 'params'\n"

    def test_non_integer_k_means_runtime_error(self, tmp_path, capsys):
        src, refs, spec = self._setup(tmp_path)
        spec.write_text(json.dumps(
            {"method": "zeros", "params": {"time_budget": 10.0, "k": 2.5, "max_actions": 60}}
        ))
        capsys.readouterr()
        assert main(["bench", "--in", str(src), "--spec", str(spec),
                     "--refs", str(refs)]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Traceback" not in captured.err

    def test_non_integer_seed_means_runtime_error(self, tmp_path, capsys):
        src, refs, spec = self._setup(tmp_path)
        spec.write_text(json.dumps(
            {"method": "zeros", "params": {"time_budget": 10.0, "seed": 2.5, "max_actions": 60}}
        ))
        capsys.readouterr()
        assert main(["bench", "--in", str(src), "--spec", str(spec),
                     "--refs", str(refs)]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Traceback" not in captured.err

    # numbers written as strings, refused by name and not by numpy
    STRING_NUMBERS = [
        {"method": "zeros", "params": {"time_budget": "1"}},
        {"method": "zeros", "params": {"time_budget": 10.0, "alpha": "1"}},
        {"method": "zeros", "params": {"time_budget": 10.0, "beta": "10"}},
    ]

    @pytest.mark.parametrize("spec_data", [
        {"method": "softdist", "tau": True, "params": {"time_budget": 10.0}},
        {"method": "softdist", "tau": math.nan, "params": {"time_budget": 10.0}},
        {"method": "softdist", "tau": math.inf, "params": {"time_budget": 10.0}},
        {"method": "zeros", "params": {"time_budget": 10.0, "max_actions": False}},
        {"method": "external", "heatmap_path": 5, "params": {"time_budget": 10.0}},
        {"method": "zeros", "params": {"time_budget": -1}},
        {"method": "zeros", "workers": 8, "heatmap_dir": "x", "params": {"time_budget": 10.0}},
        ["zeros", {"time_budget": 10.0}],
        *STRING_NUMBERS,
    ])
    def test_bad_value_fails_before_any_solve(self, tmp_path, capsys, monkeypatch, spec_data):
        src, refs, spec = self._setup(tmp_path)
        spec.write_text(json.dumps(spec_data))  # NaN and Infinity as Python's json writes them
        monkeypatch.setattr(cli, "run_bench", _no_solve)
        capsys.readouterr()
        assert main(["bench", "--in", str(src), "--spec", str(spec),
                     "--refs", str(refs)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {spec}: bad run spec: ")
        assert "Traceback" not in captured.err
        if spec_data in self.STRING_NUMBERS:
            assert captured.err == (
                f"error: {spec}: bad run spec: time_budget, alpha and beta must be real numbers\n"
            )

    @pytest.mark.parametrize("flag, rows, err", [
        ("--refs", None, "No such file"),
        ("--refs", {"0": 1.0, "2": 1.0}, "missing reference lengths for instance ids: ['1']"),
        ("--lkh-refs", {"0": 1.0, "2": 1.0},
         "missing reference-solver lengths for instance ids: ['1']"),
    ], ids=["missing-refs", "refs-without-id", "lkh-refs-without-id"])
    def test_bad_lengths_fail_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                               flag, rows, err):
        src, refs, spec = self._setup(tmp_path)
        lengths = tmp_path / "lengths.csv"
        if rows is not None:
            write_ref_lengths(lengths, rows)
        monkeypatch.setattr(cli, "run_bench", _no_solve)
        capsys.readouterr()
        assert main(["bench", "--in", str(src), "--spec", str(spec), "--refs", str(refs),
                     flag, str(lengths)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert err in captured.err

    def test_malformed_spec_names_the_file(self, tmp_path, capsys, monkeypatch):
        src, refs, spec = self._setup(tmp_path)
        spec.write_text('{"method": "zeros",\n "params": {time_budget: 10.0}}\n')
        monkeypatch.setattr(cli, "run_bench", _no_solve)
        capsys.readouterr()
        assert main(["bench", "--in", str(src), "--spec", str(spec),
                     "--refs", str(refs)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec}: bad run spec: Expecting property name")
        assert "line 2 column" in err


class TestScoreCmd:
    def test_gap_pair(self, capsys):
        assert main(["score", "--gaps", "0.0005,0.01"]) == 0
        assert capsys.readouterr().out.strip() == "5.00%"

    def test_sentinel_for_nonpositive_search_gap(self, capsys):
        assert main(["score", "--gaps", "0.01,0.0"]) == 0
        assert capsys.readouterr().out.strip() == "≥100%"

    def test_gap_pair_arity(self, capsys):
        assert main(["score", "--gaps", "0.01"]) == 2

    def test_non_numeric_gaps(self, capsys):
        assert main(["score", "--gaps", "a,b"]) == 1

    def test_needs_some_input(self, capsys):
        assert main(["score"]) == 2

    @pytest.mark.parametrize("flag", ["--refs", "--lengths", "--lkh-refs"])
    def test_gaps_refuse_length_files(self, flag, tmp_path, capsys):
        # refused before the file is read, not ignored: it does not even exist
        assert main(["score", "--gaps", "0.01,0.02", flag, str(tmp_path / "missing.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--gaps does not go with {flag}" in captured.err

    def test_length_files(self, tmp_path, capsys):
        refs = tmp_path / "refs.csv"
        lengths = tmp_path / "lengths.csv"
        lkh = tmp_path / "lkh.csv"
        refs.write_text("instance_id,length\n0,1.0\n1,1.0\n")
        lengths.write_text("instance_id,length\n0,1.02\n1,1.08\n")
        lkh.write_text("instance_id,length\n0,1.01\n1,1.01\n")
        assert main(["score", "--refs", str(refs), "--lengths", str(lengths),
                     "--lkh-refs", str(lkh)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "gap: 5.0000%"
        assert out[1] == "reference-solver gap: 1.0000%"
        assert out[2] == "score: 20.00%"

    def test_length_files_sentinel_for_zero_search_gap(self, tmp_path, capsys):
        refs = tmp_path / "refs.csv"
        lengths = tmp_path / "lengths.csv"
        lkh = tmp_path / "lkh.csv"
        refs.write_text("instance_id,length\n0,1.0\n1,2.0\n")
        lengths.write_text("instance_id,length\n0,1.0\n1,2.0\n")
        lkh.write_text("instance_id,length\n0,1.01\n1,2.02\n")
        assert main(["score", "--refs", str(refs), "--lengths", str(lengths),
                     "--lkh-refs", str(lkh)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["gap: 0.0000%", "reference-solver gap: 1.0000%", "score: ≥100%"]

    def test_agrees_with_bench_aggregate(self, tmp_path, capsys):
        # (length, optimum, reference-solver length) per instance
        table = {"0": (1.03, 1.0, 1.01), "1": (2.2, 2.0, 2.04), "2": (0.95, 0.9, 0.91)}
        files = []
        for col, name in enumerate(("lengths", "refs", "lkh")):
            files.append(tmp_path / f"{name}.csv")
            write_ref_lengths(files[-1], {i: row[col] for i, row in table.items()})
        assert main(["score", "--lengths", str(files[0]), "--refs", str(files[1]),
                     "--lkh-refs", str(files[2])]) == 0
        out = capsys.readouterr().out.splitlines()
        records = [RunRecord(instance_id=i, method="zeros", length=row[0], elapsed=0.0, seed=0)
                   for i, row in table.items()]
        report = aggregate(records, parse_ref_lengths(files[1]), parse_ref_lengths(files[2]))
        assert out == [
            f"gap: {report.gap * 100:.4f}%",
            f"reference-solver gap: {report.gap_reference * 100:.4f}%",
            f"score: {report.score * 100:.2f}%",
        ]

    def test_unmatched_ids(self, tmp_path, capsys):
        refs = tmp_path / "refs.csv"
        lengths = tmp_path / "lengths.csv"
        refs.write_text("instance_id,length\n0,1.0\n")
        lengths.write_text("instance_id,length\n7,1.02\n")
        assert main(["score", "--refs", str(refs), "--lengths", str(lengths)]) == 1


class TestOracleCmd:
    def test_writes_exact_optima(self, tmp_path, capsys):
        src = _gen(tmp_path, n=6, count=2)
        out = tmp_path / "refs.csv"
        assert main(["oracle", "--in", str(src), "--out", str(out)]) == 0
        refs = parse_ref_lengths(out)
        for i, (inst, _) in enumerate(parse_instances(src)):
            _, opt = brute_force_optimal(inst)
            assert refs[str(i)] == opt

    def test_rejects_large_instances(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "big.txt"
        write_instances(path, generate_instances(13, 1, seed=0))
        assert main(["oracle", "--in", str(path)]) == 1
        assert "error:" in capsys.readouterr().err
        # a batch is refused before its first enumeration, naming the instance
        mixed = tmp_path / "mixed.txt"
        write_instances(mixed, generate_instances(5, 1, seed=0) + generate_instances(13, 1, 1))
        out = tmp_path / "refs.csv"
        monkeypatch.setattr(cli, "brute_force_optimal", _no_solve)
        assert main(["oracle", "--in", str(mixed), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "optimal length" not in captured.out
        assert captured.err == "error: instance 1: brute force supports n <= 12, got 13\n"
        assert not out.exists()


class TestRuntimeErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["solve", "--in", str(tmp_path / "nope.txt"), "--budget", "0.05"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_instance_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.0 0.0 9.0\n")
        assert main(["solve", "--in", str(bad), "--budget", "0.05"]) == 1

    @pytest.mark.parametrize("argv", [
        ["heatmap", "--tau", "0.05", "--out", "h.hmap"],
        ["solve", "--budget", "0.05"],
        ["tune", "--budget", "0.05"],
        ["oracle"],
    ])
    def test_empty_instance_file(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.txt").write_text("")
        assert main([argv[0], "--in", "empty.txt", *argv[1:]]) == 1
        assert capsys.readouterr().err == "error: empty.txt: no instances\n"

    @pytest.mark.parametrize("loader", ["instances", "heatmap", "refs"])
    def test_unreadable_bytes_name_the_file(self, tmp_path, capsys, monkeypatch, loader):
        # bytes a loader cannot read: text that is not UTF-8, or a binary
        # heatmap payload that is no whole number of float64 values
        monkeypatch.setattr(cli, "run_single", _no_solve)
        monkeypatch.setattr(cli, "run_bench", _no_solve)
        src = _gen(tmp_path, n=6, count=1)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"method": "zeros", "params": {"time_budget": 1.0}}))
        bad = tmp_path / "bad"
        if loader == "heatmap":
            write_heatmap(bad, softdist(parse_instances(src)[0][0], 0.05))
            bad.write_bytes(bad.read_bytes()[:-3])
        else:
            bad.write_bytes(b"instance_id,length\n0,\xbb\n")
        argv = {
            "instances": ["solve", "--in", str(bad), "--budget", "1"],
            "heatmap": ["solve", "--in", str(src), "--heatmap", str(bad), "--budget", "1"],
            "refs": ["bench", "--in", str(src), "--spec", str(spec), "--refs", str(bad)],
        }[loader]
        capsys.readouterr()
        assert main(argv) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {bad}: ")

    def test_missing_compiler(self, tmp_path):
        # the kernel cannot be built: set-up commands still run, and a solve
        # fails with one error line instead of a traceback
        for d in ("bin", "cache", "tmp"):
            (tmp_path / d).mkdir()
        env = dict(os.environ, PATH=str(tmp_path / "bin"),
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
                   XDG_CACHE_HOME=str(tmp_path / "cache"), TMPDIR=str(tmp_path / "tmp"))

        def tsplab(*argv):
            return subprocess.run([sys.executable, "-m", "tsplab.cli", *argv], env=env,
                                  cwd=tmp_path, capture_output=True, text=True, timeout=120)

        assert tsplab("gen", "--n", "8", "--count", "1", "--out", "i.txt").returncode == 0
        assert tsplab("heatmap", "--in", "i.txt", "--method", "softdist", "--tau", "0.05",
                      "--out", "h.hmap").returncode == 0
        done = tsplab("solve", "--in", "i.txt", "--budget", "0.05")
        assert done.returncode == 1
        [line] = done.stderr.splitlines()
        assert line.startswith("error: ") and "cc or gcc" in line
        assert not list(tmp_path.rglob("*.so"))


# Every deterministic artifact of one CLI session: sha256 (first 16 hex
# digits) of each file the commands below leave behind, manifests included.
# Paths are relative and the solves are capped before their first
# checkpoint, so the bytes do not depend on the machine or the directory.
GOLDEN_ARTIFACTS = {
    "batch.txt": "2cea28e3d68178b8",
    "batch.txt.manifest.json": "08fe9932d3e3419e",
    "lengths.csv": "17816c7aa505dfd6",
    "lengths.csv.manifest.json": "1aa0cdd6eda9289e",
    "maps/0.hmap": "92b28dd9145ed6aa",
    "maps/1.hmap": "23b2c28c208bb188",
    "maps.manifest.json": "28bc10e81e39ec99",
    "maps_text/0.hmap": "fd8f0ee3c6a0146d",
    "maps_text/1.hmap": "4ef1e913243f263b",
    "maps_text.manifest.json": "010ab7a0332569d3",
    "one.hmap": "f33087d4450f2850",
    "one.hmap.manifest.json": "83a00e50c9e0c197",
    "one.txt": "3586921c9e33ad81",
    "one.txt.manifest.json": "d7adc6c58fb8cdfb",
    "one_lengths.csv": "32020e520e285785",
    "one_lengths.csv.manifest.json": "443d24fd57595a67",
    "one_zeros.txt": "8c33de0ee12add15",
    "one_zeros.txt.manifest.json": "ea33a6b2b53085a4",
    "refs.csv": "c4413045c011e9ac",
    "refs.csv.manifest.json": "f609fcb42ee00ba6",
    "small.txt": "54cbb725e581479f",
    "small.txt.manifest.json": "31b2608432465c4f",
    "trace.csv": "ef91136d302c4403",
    "trace.csv.manifest.json": "1aa0cdd6eda9289e",
    "tune.csv": "05e2158347dc6dd0",
    "tune.csv.manifest.json": "731d3e433131e548",
}

GOLDEN_SESSION = [
    ["gen", "--n", "20", "--count", "2", "--seed", "3", "--out", "batch.txt"],
    ["gen", "--n", "20", "--count", "1", "--seed", "4", "--out", "one.txt"],
    ["gen", "--n", "7", "--count", "2", "--seed", "5", "--out", "small.txt"],
    ["heatmap", "--in", "one.txt", "--tau", "0.05", "--out", "one.hmap"],
    ["heatmap", "--in", "one.txt", "--method", "zeros", "--format", "text",
     "--out", "one_zeros.txt"],
    ["heatmap", "--in", "batch.txt", "--tau", "0.05", "--out", "maps"],
    ["heatmap", "--in", "batch.txt", "--tau", "0.05", "--format", "text", "--out", "maps_text"],
    ["solve", "--in", "batch.txt", "--heatmap", "maps", "--max-actions", "200",
     "--budget", "60", "--checkpoints", "30,60", "--trace", "trace.csv", "--out", "lengths.csv"],
    ["solve", "--in", "one.txt", "--heatmap", "one_zeros.txt", "--max-actions", "200",
     "--budget", "60", "--out", "one_lengths.csv"],
    ["tune", "--in", "small.txt", "--budget", "10", "--max-actions", "40", "--coarse",
     "0.01,0.03", "--refine-step", "0.0025", "--refine-radius", "0.005", "--report", "csv",
     "--out", "tune.csv"],
    ["oracle", "--in", "small.txt", "--out", "refs.csv"],
]


def test_golden_cli_artifacts(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in GOLDEN_SESSION:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert main(["score", "--gaps", "0.0005,0.01"]) == 0
    assert capsys.readouterr().out == "5.00%\n"
    got = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()[:16]
        for p in sorted(tmp_path.rglob("*"))
        if p.is_file()
    }
    assert got == GOLDEN_ARTIFACTS
