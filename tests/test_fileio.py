import hashlib
import json
import struct

import numpy as np
import pytest

from tsplab.bench import RunRecord, aggregate
from tsplab.fileio import (
    HEATMAP_MAGIC,
    ParseError,
    heatmap_file,
    parse_heatmap,
    parse_instances,
    parse_ref_lengths,
    render_report,
    render_tune_table,
    write_heatmap,
    write_instances,
    write_manifest,
    write_ref_lengths,
)
from tsplab.geometry import Tour, generate_instances
from tsplab.heatmap import softdist
from tsplab.tuner import TuneResult


class TestInstanceFiles:
    def test_golden_line_with_tour(self, tmp_path):
        p = tmp_path / "in.txt"
        p.write_text("0.0 0.0 1.0 0.0 1.0 1.0 0.0 1.0 output 1 2 3 4 1\n")
        [(inst, tour)] = parse_instances(p)
        assert np.array_equal(
            inst.points, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
        )
        assert tour.order.tolist() == [0, 1, 2, 3]

    def test_round_trip_is_exact(self, tmp_path):
        instances = generate_instances(7, 3, seed=40)
        items = [
            (instances[0], Tour(np.arange(7))),
            (instances[1], None),
            instances[2],
        ]
        p = tmp_path / "batch.txt"
        write_instances(p, items)
        parsed = parse_instances(p)
        assert len(parsed) == 3
        for (inst, tour), orig in zip(parsed, instances):
            assert np.array_equal(inst.points, orig.points)
        assert parsed[0][1].order.tolist() == list(range(7))
        assert parsed[1][1] is None and parsed[2][1] is None

    def test_blank_lines_are_skipped(self, tmp_path):
        p = tmp_path / "in.txt"
        p.write_text("\n0.0 0.0 1.0 1.0\n\n")
        assert len(parse_instances(p)) == 1

    def test_no_instances(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("\n  \n")
        with pytest.raises(ParseError, match=f"^{p}: no instances$"):
            parse_instances(p)

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("0.0 0.0 1.0", "odd number"),
            ("0.0 zero 1.0 1.0", "numbers"),
            ("0.0 0.0 2.0 1.0", ""),  # coordinate outside the unit square
            ("0.0 0.0 1.0 1.0 output 1 2", "n+1"),
            ("0.0 0.0 1.0 1.0 output 1 2 2", "first repeated"),
            ("0.0 0.0 1.0 1.0 output 1 1 1", "permutation"),
            ("0.0 0.0 1.0 1.0 output 0 1 0", "permutation"),
            ("0.0 0.0 1.0 1.0 output 1 x 1", "integers"),
            ("0.5 0.5 0.5 0.5 0.5 0.5", "two distinct points"),
        ],
    )
    def test_malformed_lines(self, tmp_path, line, fragment):
        p = tmp_path / "bad.txt"
        p.write_text(line + "\n")
        with pytest.raises(ParseError) as err:
            parse_instances(p)
        assert f"{p}:1:" in str(err.value)
        assert fragment in str(err.value)


class TestHeatmapFiles:
    def test_binary_round_trip(self, tmp_path):
        h = softdist(generate_instances(9, 1, seed=41)[0], 0.037)
        p = tmp_path / "h.hmap"
        write_heatmap(p, h, binary=True)
        assert p.read_bytes()[:5] == HEATMAP_MAGIC
        assert np.array_equal(parse_heatmap(p), h)

    def test_text_round_trip(self, tmp_path):
        h = softdist(generate_instances(6, 1, seed=42)[0], 0.02)
        p = tmp_path / "h.txt"
        write_heatmap(p, h, binary=False)
        assert np.array_equal(parse_heatmap(p), h)

    def test_golden_text_heatmap(self, tmp_path):
        p = tmp_path / "h.txt"
        p.write_text("2\n0 1\n1 0\n")
        assert np.array_equal(parse_heatmap(p), [[0.0, 1.0], [1.0, 0.0]])

    def test_diagonal_is_forced_to_zero(self, tmp_path):
        p = tmp_path / "h.txt"
        p.write_text("2\n0.5 1\n1 0.5\n")
        h = parse_heatmap(p)
        assert h[0, 0] == 0.0 and h[1, 1] == 0.0

    def test_truncated_binary_payload(self, tmp_path):
        p = tmp_path / "h.hmap"
        write_heatmap(p, np.ones((3, 3)))
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ParseError, match="float64 values"):
            parse_heatmap(p)

    def test_truncated_binary_header(self, tmp_path):
        p = tmp_path / "h.hmap"
        p.write_bytes(HEATMAP_MAGIC + b"\x03")
        with pytest.raises(ParseError, match="truncated"):
            parse_heatmap(p)

    def test_non_text_garbage(self, tmp_path):
        p = tmp_path / "h.hmap"
        p.write_bytes(b"XMAP1" + struct.pack("<Q", 2) + b"\xff\xfe" * 20)
        with pytest.raises(ParseError):
            parse_heatmap(p)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "empty"),
            ("x\n0 1\n1 0\n", "matrix size"),
            ("2\n0 1\n", "matrix rows"),
            ("2\n0 1 0\n1 0\n", "expected 2 values"),
            ("2\n0 a\n1 0\n", "numbers"),
            ("1\n0\n", "at least 2x2"),
            ("0\n", "at least 2x2"),
            ("2\n0 -1\n1 0\n", "negative"),
            ("2\n0 inf\n1 0\n", "finite"),
            ("2\n0 0\n0 0\n", "zero total mass"),
            ("2\nnan 1\n1 0\n", "diagonal"),
            ("2\n0 1\n1 -1\n", "diagonal"),
        ],
    )
    def test_malformed_text(self, tmp_path, text, fragment):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(ParseError, match=fragment):
            parse_heatmap(p)

    def test_zero_mass_row_names_file_and_row(self, tmp_path):
        h = np.ones((4, 4))
        h[2] = 0.0
        p = tmp_path / "h.hmap"
        write_heatmap(p, h)
        with pytest.raises(ParseError) as err:
            parse_heatmap(p)
        assert str(err.value).startswith(f"{p}: heatmap row 2 has zero total mass")

    @pytest.mark.parametrize("binary", [True, False], ids=["binary", "text"])
    @pytest.mark.parametrize("row, col, value, message", [
        (2, 0, -1.0, "entries must be finite and nonnegative"),
        (3, 1, np.inf, "entries must be finite and nonnegative"),
        (1, 1, np.nan, "diagonal must be finite and nonnegative"),
    ], ids=["negative", "inf", "nan-diagonal"])
    def test_bad_entry_names_file_and_row(self, tmp_path, binary, row, col, value, message):
        h = np.ones((5, 5))
        h[row, col] = value
        # a later row is bad the same way
        h[4, 4 if row == col else 0] = value
        p = tmp_path / "h.hmap"
        write_heatmap(p, h, binary=binary)
        with pytest.raises(ParseError) as err:
            parse_heatmap(p)
        assert str(err.value) == f"{p}: heatmap row {row}: {message}"


class TestRefLengthFiles:
    def test_round_trip(self, tmp_path):
        refs = {"0": 16.55, "1": 23.12, "7": 0.125}
        p = tmp_path / "refs.csv"
        write_ref_lengths(p, refs)
        assert parse_ref_lengths(p) == refs

    def test_header_line(self, tmp_path):
        p = tmp_path / "refs.csv"
        write_ref_lengths(p, {"0": 1.0})
        assert p.read_text().splitlines()[0] == "instance_id,length"

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("id,len\n0,1.0\n", "header"),
            ("instance_id,length\n0,1.0\n0,2.0\n", "duplicate"),
            ("instance_id,length\n0,1.0,9\n", "2 fields"),
            ("instance_id,length\n0,abc\n", "number"),
            ("instance_id,length\n0,0.0\n", "positive"),
            ("instance_id,length\n0,-1\n", "positive"),
            ("instance_id,length\n0,inf\n", "finite"),
        ],
    )
    def test_malformed(self, tmp_path, text, fragment):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match=fragment):
            parse_ref_lengths(p)


def _report():
    records = [
        RunRecord(instance_id="0", method="zeros", length=1.02, elapsed=0.5, seed=11),
        RunRecord(instance_id="1", method="zeros", length=1.08, elapsed=0.6, seed=12),
    ]
    return aggregate(records, {"0": 1.0, "1": 1.0}, reference_lengths={"0": 1.01, "1": 1.01})


class TestHeatmapFile:
    def test_file_serves_every_id(self, tmp_path):
        p = tmp_path / "h.hmap"
        assert heatmap_file(p, "3") == p
        assert heatmap_file(str(tmp_path / "missing.hmap"), "0") == tmp_path / "missing.hmap"

    def test_directory_holds_one_file_per_id(self, tmp_path):
        assert heatmap_file(tmp_path, "3") == tmp_path / "3.hmap"
        assert heatmap_file(str(tmp_path), "0") == tmp_path / "0.hmap"

    def test_trailing_separator_means_directory(self, tmp_path):
        missing = tmp_path / "maps"
        assert heatmap_file(f"{missing}/", "1") == missing / "1.hmap"
        assert heatmap_file(missing, "1") == missing


class TestRenderReport:
    def test_json_parses_and_matches(self):
        payload = json.loads(render_report(_report(), "json"))
        assert payload["count"] == 2
        assert abs(payload["gap"] - 0.05) < 1e-12
        assert payload["score_display"] == "20.00%"
        assert [r["instance_id"] for r in payload["records"]] == ["0", "1"]

    def test_json_bytes(self):
        # pinned before RunRecord and BenchReport built their own dicts
        records = [
            RunRecord(instance_id="0", method="zeros", length=1.02, elapsed=0.5, seed=11,
                      heatmap_seconds=0.25, trace=[(0.5, 1.1), (1.0, 1.02)]),
            RunRecord(instance_id="1", method="zeros", length=1.08, elapsed=0.6, seed=12),
        ]
        report = aggregate(records, {"0": 1.0, "1": 1.0}, {"0": 1.01, "1": 1.01})
        text = render_report(report, "json")
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "7afb2f62d77d4aef"

    def test_csv_header_and_rows(self):
        lines = render_report(_report(), "csv").splitlines()
        assert lines[0] == "instance_id,method,length,elapsed_seconds,heatmap_seconds,seed"
        assert len(lines) == 3
        assert lines[1].startswith("0,zeros,1.02,")

    def test_md_layout(self):
        text = render_report(_report(), "md")
        lines = text.splitlines()
        assert lines[0] == "| metric | value |"
        assert any("| gap | 5.0000% |" == l for l in lines)
        assert "| score | 20.00% |" in lines
        assert "| instance_id | length | elapsed_seconds |" in lines

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report(_report(), "xml")


class TestRenderTuneTable:
    def test_csv(self):
        result = TuneResult(best_tau=0.005, table=((0.005, 17.2), (0.01, 16.9)))
        lines = render_tune_table(result, "csv").splitlines()
        assert lines[0] == "tau,mean_length"
        assert lines[1] == "0.005,17.2"

    def test_json(self):
        result = TuneResult(best_tau=0.005, table=((0.005, 17.2),))
        payload = json.loads(render_tune_table(result, "json"))
        assert payload["best_tau"] == 0.005
        assert payload["table"] == [[0.005, 17.2]]

    def test_md(self):
        result = TuneResult(best_tau=0.005, table=((0.005, 17.2),))
        assert render_tune_table(result, "md").startswith("best tau: 0.005")
        # taus as the csv prints them: a refine step finer than four decimals
        # keeps its rows apart
        result = TuneResult(0.001, ((0.00095, 5.1), (0.001, 5.0), (0.00105, 5.05)))
        rows = render_tune_table(result, "md").splitlines()[-3:]
        assert rows == ["| 0.00095 | 5.10000 |", "| 0.001 | 5.00000 |", "| 0.00105 | 5.05000 |"]

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_tune_table(TuneResult(best_tau=0.01, table=()), "yaml")


class TestManifest:
    def test_written_next_to_artifact(self, tmp_path):
        out = tmp_path / "result.csv"
        mpath = write_manifest(out, "bench", {"workers": 4, "tau": 0.0066}, "0.1.0")
        assert mpath == tmp_path / "result.csv.manifest.json"
        payload = json.loads(mpath.read_text())
        assert payload["tool"] == "tsplab"
        assert payload["version"] == "0.1.0"
        assert payload["command"] == "bench"
        assert payload["parameters"] == {"workers": 4, "tau": 0.0066}

    def test_beside_a_directory(self, tmp_path):
        for out in (tmp_path / "maps", f"{tmp_path / 'maps'}/"):
            mpath = write_manifest(out, "heatmap", {}, "0.1.0")
            assert mpath == tmp_path / "maps.manifest.json"
