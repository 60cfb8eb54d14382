"""On-disk formats: instance lines, heatmap files, length CSVs, reports.

Instance files hold one instance per line: ``x1 y1 x2 y2 ...`` with
coordinates in [0, 1], optionally followed by the literal token ``output``
and ``n + 1`` one-based tour indices, the first repeated at the end.
Indices are one-based on disk and zero-based in memory; the conversion
happens here and nowhere else.

Heatmap files are text (first line ``n``, then ``n`` rows of ``n`` values)
or binary (magic ``HMAP1``, little-endian uint64 ``n``, then ``n*n``
float64 row-major).  Floats are written as shortest round-tripping decimals,
so parse(write(x)) recovers x exactly in both formats.

Reference-length files are CSV with header ``instance_id,length``.
"""

from __future__ import annotations

import csv
import io
import json
import struct
from pathlib import Path

import numpy as np

from .geometry import TspInstance, Tour, is_permutation

HEATMAP_MAGIC = b"HMAP1"


class ParseError(ValueError):
    """Malformed input file; the message carries file and line context."""


def _fmt(x: float) -> str:
    return repr(float(x))


# -- instances ---------------------------------------------------------------


def parse_instances(path) -> list[tuple[TspInstance, Tour | None]]:
    path = Path(path)
    out: list[tuple[TspInstance, Tour | None]] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            toks = line.split()
            if "output" in toks:
                cut = toks.index("output")
                coord_toks, tour_toks = toks[:cut], toks[cut + 1 :]
            else:
                coord_toks, tour_toks = toks, None
            try:
                coords = [float(t) for t in coord_toks]
            except ValueError:
                raise ParseError(f"{path}:{lineno}: coordinates must be numbers") from None
            if len(coords) % 2:
                raise ParseError(f"{path}:{lineno}: odd number of coordinate values")
            try:
                inst = TspInstance(np.array(coords, dtype=np.float64).reshape(-1, 2))
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: {e}") from None
            tour = None
            if tour_toks is not None:
                try:
                    idx = [int(t) for t in tour_toks]
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: tour indices must be integers") from None
                if len(idx) != inst.n + 1 or idx[0] != idx[-1]:
                    raise ParseError(
                        f"{path}:{lineno}: tour must list n+1 one-based indices "
                        "with the first repeated at the end"
                    )
                body = np.array(idx[:-1], dtype=np.int64) - 1
                if not is_permutation(body, inst.n):
                    raise ParseError(f"{path}:{lineno}: tour is not a permutation of 1..n")
                tour = Tour(body)
            out.append((inst, tour))
    return out


def write_instances(path, items) -> None:
    """``items``: TspInstance values or (TspInstance, Tour-or-None) pairs."""
    path = Path(path)
    with open(path, "w") as fh:
        for item in items:
            inst, tour = item if isinstance(item, tuple) else (item, None)
            line = " ".join(_fmt(v) for v in inst.points.ravel())
            if tour is not None:
                ids = [int(i) + 1 for i in tour.order]
                ids.append(ids[0])
                line += " output " + " ".join(str(i) for i in ids)
            fh.write(line + "\n")


# -- heatmaps ----------------------------------------------------------------


def parse_heatmap(path) -> np.ndarray:
    """Load a heatmap, auto-detecting binary vs text by the magic bytes.

    Entries must be finite and nonnegative; the diagonal is forced to zero
    on load.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(len(HEATMAP_MAGIC))
        if head == HEATMAP_MAGIC:
            h = _parse_heatmap_binary(fh, path)
        else:
            fh.seek(0)
            h = _parse_heatmap_text(io.TextIOWrapper(fh, encoding="utf-8"), path)
    if h.shape[0] < 2:
        raise ParseError(f"{path}: heatmap must be at least 2x2")
    if not np.all(np.isfinite(h)):
        raise ParseError(f"{path}: heatmap entries must be finite")
    if np.any(h < 0.0):
        raise ParseError(f"{path}: negative heatmap entry")
    np.fill_diagonal(h, 0.0)
    return h


def _parse_heatmap_binary(fh, path: Path) -> np.ndarray:
    raw_n = fh.read(8)
    if len(raw_n) != 8:
        raise ParseError(f"{path}: truncated binary heatmap header")
    n = struct.unpack("<Q", raw_n)[0]
    data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != n * n:
        raise ParseError(f"{path}: expected {n * n} float64 values, found {data.size}")
    return data.reshape(n, n).astype(np.float64)


def _parse_heatmap_text(fh, path: Path) -> np.ndarray:
    try:
        lines = [l.strip() for l in fh]
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not a heatmap file (bad magic and not text)") from None
    lines = [(i + 1, l) for i, l in enumerate(lines) if l]
    if not lines:
        raise ParseError(f"{path}: empty heatmap file")
    lineno, first = lines[0]
    try:
        n = int(first)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: first line must be the matrix size") from None
    if len(lines) - 1 != n:
        raise ParseError(f"{path}: expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for lineno, l in lines[1:]:
        vals = l.split()
        if len(vals) != n:
            raise ParseError(f"{path}:{lineno}: expected {n} values, found {len(vals)}")
        try:
            rows.append([float(v) for v in vals])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: matrix entries must be numbers") from None
    return np.array(rows, dtype=np.float64)


def write_heatmap(path, h: np.ndarray, binary: bool = True) -> None:
    path = Path(path)
    h = np.ascontiguousarray(np.asarray(h, dtype=np.float64))
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("heatmap must be square")
    n = h.shape[0]
    if binary:
        with open(path, "wb") as fh:
            fh.write(HEATMAP_MAGIC)
            fh.write(struct.pack("<Q", n))
            fh.write(h.astype("<f8").tobytes())
    else:
        with open(path, "w") as fh:
            fh.write(f"{n}\n")
            for row in h:
                fh.write(" ".join(_fmt(v) for v in row) + "\n")


# -- reference lengths -------------------------------------------------------


def parse_ref_lengths(path) -> dict[str, float]:
    path = Path(path)
    out: dict[str, float] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["instance_id", "length"]:
            raise ParseError(f"{path}: expected CSV header 'instance_id,length'")
        for lineno, row in enumerate(reader, 2):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(f"{path}:{lineno}: expected 2 fields")
            key = row[0].strip()
            if key in out:
                raise ParseError(f"{path}:{lineno}: duplicate instance id {key!r}")
            try:
                val = float(row[1])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: length must be a number") from None
            if not np.isfinite(val) or val <= 0.0:
                raise ParseError(f"{path}:{lineno}: length must be positive and finite")
            out[key] = val
    return out


def write_ref_lengths(path, refs) -> None:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance_id", "length"])
        for key, val in refs.items():
            writer.writerow([key, _fmt(val)])


# -- reports -----------------------------------------------------------------


def _pct(x: float | None) -> str:
    return "-" if x is None else f"{x * 100:.4f}%"


def render_report(report, fmt: str) -> str:
    """Render a BenchReport as ``csv`` (per-record table), ``json``, or ``md``."""
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["instance_id", "method", "length", "elapsed_seconds", "heatmap_seconds", "seed"]
        )
        for r in report.records:
            writer.writerow(
                [r.instance_id, r.method, _fmt(r.length), f"{r.elapsed:.3f}",
                 f"{r.heatmap_seconds:.3f}", r.seed]
            )
        return buf.getvalue()
    if fmt == "md":
        score = report.score_display if report.score_display is not None else "-"
        lines = [
            "| metric | value |",
            "| --- | --- |",
            f"| method | {report.method} |",
            f"| instances | {report.count} |",
            f"| mean length | {report.length_mean:.5f} |",
            f"| gap | {_pct(report.gap)} |",
            f"| gap (ratio of means) | {_pct(report.gap_ratio_of_means)} |",
            f"| reference-solver gap | {_pct(report.gap_reference)} |",
            f"| score | {score} |",
            f"| solve seconds | {report.solve_seconds:.2f} |",
            f"| heatmap seconds | {report.heatmap_seconds:.2f} |",
            "",
            "| instance_id | length | elapsed_seconds |",
            "| --- | --- | --- |",
        ]
        for r in report.records:
            lines.append(f"| {r.instance_id} | {r.length:.6f} | {r.elapsed:.3f} |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format: {fmt!r} (use csv, json, or md)")


def render_tune_table(result, fmt: str) -> str:
    """Render a TuneResult as ``csv``, ``json``, or ``md``."""
    if fmt == "json":
        payload = {"best_tau": result.best_tau, "table": [[t, v] for t, v in result.table]}
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["tau", "mean_length"])
        for tau, val in result.table:
            writer.writerow([_fmt(tau), _fmt(val)])
        return buf.getvalue()
    if fmt == "md":
        lines = [f"best tau: {result.best_tau:g}", "", "| tau | mean length |", "| --- | --- |"]
        for tau, val in result.table:
            lines.append(f"| {tau:.4f} | {val:.5f} |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format: {fmt!r} (use csv, json, or md)")


def write_manifest(out_path, command: str, parameters: dict, version: str) -> Path:
    """Drop ``<out>.manifest.json`` recording how an artifact was produced."""
    manifest = {
        "tool": "tsplab",
        "version": version,
        "command": command,
        "parameters": parameters,
    }
    mpath = Path(str(out_path) + ".manifest.json")
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return mpath
