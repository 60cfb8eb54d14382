import json

import numpy as np
import pytest

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


def _gen(tmp_path, n=6, count=2, seed=0, name="instances.txt"):
    path = tmp_path / name
    assert main(["gen", "--n", str(n), "--count", str(count), "--seed", str(seed),
                 "--out", str(path)]) == 0
    return path


class TestTopLevel:
    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip() == "tsplab 0.1.0"

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

    def test_default_budget_with_action_cap(self, tmp_path, capsys):
        src = _gen(tmp_path, count=1)
        assert main(["solve", "--in", str(src), "--profile", "short",
                     "--max-actions", "30"]) == 0


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

    def test_out_file_and_manifest(self, tmp_path, capsys):
        src = _gen(tmp_path, count=1)
        out = tmp_path / "tune.csv"
        assert main(["tune", "--in", str(src), "--budget", "10", "--max-actions", "30",
                     "--coarse", "0.01,0.03", "--refine-step", "0.0025",
                     "--refine-radius", "0.005", "--out", str(out)]) == 0
        assert out.read_text().startswith("tau,mean_length")
        manifest = json.loads((tmp_path / "tune.csv.manifest.json").read_text())
        assert manifest["command"] == "tune"


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
        assert "bad run spec" in capsys.readouterr().err

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

    def test_rejects_large_instances(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        write_instances(path, generate_instances(13, 1, seed=0))
        assert main(["oracle", "--in", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestRuntimeErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["solve", "--in", str(tmp_path / "nope.txt"), "--budget", "0.05"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_instance_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.0 0.0 9.0\n")
        assert main(["solve", "--in", str(bad), "--budget", "0.05"]) == 1
