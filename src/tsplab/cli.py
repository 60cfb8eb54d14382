"""Command-line front end.

Exit codes: 0 on success, 2 for usage errors, 1 for runtime failures.
Every run that writes an artifact also drops ``<out>.manifest.json`` beside
it, recording the tool version and the full parameter set that produced it.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .bench import METHODS, MctsRunSpec, aggregate, check_ids, gap_rows, instance_ids
from .bench import load_run_spec, make_heatmap, run_bench, run_single, score_display
from .fileio import (
    heatmap_file,
    parse_instances,
    parse_ref_lengths,
    render_report,
    render_tune_table,
    write_heatmap,
    write_instances,
    write_manifest,
    write_ref_lengths,
    write_traces,
)
from .geometry import BRUTE_FORCE_MAX_N, brute_force_optimal, generate_instances
from .mcts import MctsParams, _validated_checkpoints, default_time_budget
from .tuner import GridSpec, default_tau, grid_search_tau


# the path options, by dest: an empty one would name the working directory
_PATH_FLAGS = {
    "infile": "--in", "spec": "--spec", "heatmap": "--heatmap", "out": "--out",
    "trace": "--trace", "refs": "--refs", "lengths": "--lengths",
    "reference_lengths": "--lkh-refs",
}


def _usage(msg: str) -> int:
    print(f"usage error: {msg}", file=sys.stderr)
    return 2


def _wrote(args: argparse.Namespace, command: str, what: str, **extra) -> None:
    """Drop the manifest of ``--out`` (every scalar argument plus ``extra``)
    beside it and print ``wrote <what>``."""
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "command") and (v is None or isinstance(v, (str, int, float, bool)))
    }
    write_manifest(args.out, command, params | extra, __version__)
    print(f"wrote {what}")


def _write_out(args: argparse.Namespace, command: str, text: str, what: str, **extra) -> None:
    """Write ``text`` to ``--out`` with its manifest, or else to stdout."""
    if args.out is not None:
        Path(args.out).write_text(text)
        _wrote(args, command, f"{what} to {args.out}", **extra)
    else:
        sys.stdout.write(text)


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of numbers") from None


def cmd_gen(args: argparse.Namespace) -> int:
    instances = generate_instances(args.n, args.count, args.seed)
    write_instances(args.out, instances)
    _wrote(args, "gen", f"{args.count} instances of size {args.n} to {args.out}")
    return 0


def cmd_heatmap(args: argparse.Namespace) -> int:
    if args.method == "softdist" and args.tau is None:
        return _usage("--tau is required with --method softdist")
    if args.method != "softdist" and args.tau is not None:
        return _usage(f"--tau is only meaningful with --method softdist, not {args.method}")
    if args.tau is not None and not 0.0 < args.tau < math.inf:
        return _usage("--tau must be a positive finite number")
    pairs = parse_instances(args.infile)
    out = args.out if len(pairs) == 1 else f"{Path(args.out)}/"  # a batch goes to a directory
    files = [heatmap_file(out, iid) for iid in instance_ids(len(pairs))]
    to_dir = files[0] != Path(out)
    if to_dir:
        Path(out).mkdir(parents=True, exist_ok=True)
    for (inst, _), path in zip(pairs, files):
        write_heatmap(path, make_heatmap(inst, args.method, args.tau), args.format == "binary")
    what = f"{len(files)} heatmaps to {Path(out)}/" if to_dir else f"heatmap to {files[0]}"
    _wrote(args, "heatmap", what)
    return 0


def _solve_spec(args: argparse.Namespace, inst) -> MctsRunSpec:
    budget = args.budget if args.budget is not None else default_time_budget(inst.n, args.profile)
    params = MctsParams(
        time_budget=budget,
        seed=args.seed,
        alpha=args.alpha,
        beta=args.beta,
        k=args.k,
        max_depth=args.depth,
        max_actions=args.max_actions,
    )
    tau = args.tau
    if args.method == "softdist" and tau is None:
        tau = default_tau(inst.n)
    # cmd_solve has refused --heatmap with any method but external, and
    # MctsRunSpec refuses --tau with any method but softdist
    return MctsRunSpec(method=args.method, params=params, tau=tau, heatmap_path=args.heatmap)


def cmd_solve(args: argparse.Namespace) -> int:
    if args.heatmap is not None and args.method not in (None, "external"):
        return _usage("--heatmap implies --method external")
    args.method = args.method or ("external" if args.heatmap is not None else "softdist")
    if args.method == "external" and args.heatmap is None:
        return _usage("--method external needs --heatmap")
    if (args.trace is None) != (args.checkpoints is None):
        return _usage("--trace and --checkpoints go together")
    # an empty list too goes to the checks below, which refuse it
    checkpoints = (
        None if args.checkpoints is None else _parse_floats(args.checkpoints, "--checkpoints")
    )

    instances = [inst for inst, _ in parse_instances(args.infile)]
    specs = [_solve_spec(args, inst) for inst in instances]
    # a default budget depends on n: check every one before the first solve
    for spec, iid in zip(specs, instance_ids(len(specs))):
        budget = spec.params.time_budget
        try:
            _validated_checkpoints(checkpoints, budget)
        except ValueError as e:
            raise ValueError(f"instance {iid} (budget {budget:g}s): {e}") from None
    specs[0].check_batch(instances)
    records = []
    for inst, spec, iid in zip(instances, specs, instance_ids(len(instances))):
        rec = run_single(inst, spec, iid, checkpoints)
        records.append(rec)
        print(f"instance {rec.instance_id}: length {rec.length:.6f} in {rec.elapsed:.2f}s")
    if args.out is not None:
        write_ref_lengths(args.out, {r.instance_id: r.length for r in records})
        _wrote(args, "solve", f"lengths to {args.out}")
    if args.trace is not None:
        write_traces(args.trace, {r.instance_id: r.trace for r in records})
        print(f"wrote traces to {args.trace}")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    instances = [inst for inst, _ in parse_instances(args.infile)]
    params = MctsParams(time_budget=args.budget, seed=args.seed, max_actions=args.max_actions)
    grid = None
    given = [v is not None for v in (args.coarse, args.refine_step, args.refine_radius)]
    if any(given):
        if not all(given):
            return _usage("--coarse, --refine-step and --refine-radius go together")
        grid = GridSpec(
            coarse=tuple(_parse_floats(args.coarse, "--coarse")),
            refine_radius=args.refine_radius,
            refine_step=args.refine_step,
        )
    result = grid_search_tau(instances, params, grid, workers=args.workers)
    _write_out(args, "tune", render_tune_table(result, args.report), "tuning table")
    print(f"best tau: {result.best_tau:g}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    instances = [inst for inst, _ in parse_instances(args.infile)]
    spec, spec_data = load_run_spec(args.spec)
    refs = parse_ref_lengths(args.refs)
    reference = (
        None if args.reference_lengths is None else parse_ref_lengths(args.reference_lengths)
    )
    check_ids(instance_ids(len(instances)), refs, reference)
    records = run_bench(instances, spec, workers=args.workers)
    report = aggregate(records, refs, reference)
    _write_out(args, "bench", render_report(report, args.report), "report", spec=spec_data)
    gap = f"{report.gap * 100:.4f}%"
    score = f", score {report.score_display}" if report.score_display else ""
    print(f"{spec.label()}: mean length {report.length_mean:.5f}, gap {gap}{score}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    if args.gaps is not None:
        given = [_PATH_FLAGS[dest] for dest in ("refs", "lengths", "reference_lengths")
                 if getattr(args, dest) is not None]
        if given:
            return _usage(f"--gaps does not go with {given[0]}")
        vals = _parse_floats(args.gaps, "--gaps")
        if len(vals) != 2:
            return _usage("--gaps needs exactly two values: reference_gap,search_gap")
        print(score_display(vals[0], vals[1])[1])
        return 0
    if args.refs is None or args.lengths is None:
        return _usage("give either --gaps or both --refs and --lengths")
    refs = parse_ref_lengths(args.refs)
    lengths = parse_ref_lengths(args.lengths)
    reference = (
        None if args.reference_lengths is None else parse_ref_lengths(args.reference_lengths)
    )
    gaps = gap_rows(list(lengths), list(lengths.values()), refs, reference)
    print(f"gap: {gaps.gap * 100:.4f}%")
    if reference is not None:
        print(f"reference-solver gap: {gaps.gap_reference * 100:.4f}%")
        print(f"score: {gaps.score_display}")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    pairs = parse_instances(args.infile)
    ids = instance_ids(len(pairs))
    # an enumeration may take minutes: check every size before the first
    for iid, (inst, _) in zip(ids, pairs):
        if inst.n > BRUTE_FORCE_MAX_N:
            raise ValueError(
                f"instance {iid}: brute force supports n <= {BRUTE_FORCE_MAX_N}, got {inst.n}"
            )
    refs = {}
    for iid, (inst, _) in zip(ids, pairs):
        _tour, length = brute_force_optimal(inst)
        refs[iid] = length
        print(f"instance {iid}: optimal length {length:.6f}")
    if args.out is not None:
        write_ref_lengths(args.out, refs)
        _wrote(args, "oracle", f"optimal lengths to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    search = {f.name: f.default for f in fields(MctsParams)}
    p = argparse.ArgumentParser(
        prog="tsplab",
        description="Euclidean TSP workbench: instances, heatmaps, guided k-opt search, "
        "temperature tuning, and benchmarking.",
    )
    p.add_argument("--version", action="version", version=f"tsplab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate uniform unit-square instances")
    g.add_argument("--n", type=int, required=True, help="points per instance")
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    h = sub.add_parser("heatmap", help="generate heatmaps for an instance file")
    h.add_argument("--in", dest="infile", required=True)
    h.add_argument("--method", choices=[m for m in METHODS if m != "external"],
                   default="softdist")
    h.add_argument("--tau", type=float, help="softdist temperature")
    h.add_argument("--format", choices=["binary", "text"], default="binary")
    h.add_argument("--out", required=True, help="file for one instance, directory for many")
    h.set_defaults(func=cmd_heatmap)

    s = sub.add_parser("solve", help="run the guided search on each instance")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--method", choices=METHODS)
    s.add_argument("--tau", type=float, help="softdist temperature (default: size-interpolated)")
    s.add_argument("--heatmap", help="external heatmap file or directory")
    s.add_argument("--budget", type=float, help="seconds per instance (default: profile-based)")
    s.add_argument("--profile", choices=["default", "short"], default="default",
                   help="fallback budget: n/10s (default) or n/25s (short)")
    s.add_argument("--alpha", type=float, default=search["alpha"])
    s.add_argument("--beta", type=float, default=search["beta"])
    s.add_argument("--k", type=int, default=search["k"])
    s.add_argument("--depth", type=int, default=search["max_depth"])
    s.add_argument("--seed", type=int, default=search["seed"])
    s.add_argument("--max-actions", type=int, help="optional deterministic action cap")
    s.add_argument("--out", help="write a lengths CSV (instance_id,length)")
    s.add_argument("--trace", help="write best-length traces to this CSV")
    s.add_argument("--checkpoints", help="comma-separated trace times in seconds")
    s.set_defaults(func=cmd_solve)

    t = sub.add_parser("tune", help="two-stage temperature grid search")
    t.add_argument("--in", dest="infile", required=True)
    t.add_argument("--budget", type=float, required=True, help="seconds per solve")
    t.add_argument("--seed", type=int, default=search["seed"])
    t.add_argument("--workers", type=int, default=1)
    t.add_argument("--coarse", help="comma-separated coarse temperatures")
    t.add_argument("--refine-step", type=float)
    t.add_argument("--refine-radius", type=float)
    t.add_argument("--max-actions", type=int)
    t.add_argument("--report", choices=["csv", "json", "md"], default="csv")
    t.add_argument("--out")
    t.set_defaults(func=cmd_tune)

    b = sub.add_parser("bench", help="batch-solve and report Gap/Score")
    b.add_argument("--in", dest="infile", required=True)
    b.add_argument("--spec", required=True,
                   help="JSON run spec: method, tau?, heatmap_path?, params{...}")
    b.add_argument("--refs", required=True, help="optimal lengths CSV")
    b.add_argument("--lkh-refs", "--reference-lengths", dest="reference_lengths",
                   help="reference-solver lengths CSV (enables Score)")
    b.add_argument("--workers", type=int, default=1)
    b.add_argument("--report", choices=["csv", "json", "md"], default="md")
    b.add_argument("--out")
    b.set_defaults(func=cmd_bench)

    c = sub.add_parser("score", help="Gap/Score arithmetic on lengths or gaps")
    c.add_argument("--gaps", help="reference_gap,search_gap")
    c.add_argument("--refs", help="optimal lengths CSV")
    c.add_argument("--lengths", help="searched lengths CSV")
    c.add_argument("--lkh-refs", "--reference-lengths", dest="reference_lengths",
                   help="reference-solver lengths CSV")
    c.set_defaults(func=cmd_score)

    o = sub.add_parser("oracle", help="exact optima by exhaustive search (n <= 12)")
    o.add_argument("--in", dest="infile", required=True)
    o.add_argument("--out", help="write optimal lengths CSV")
    o.set_defaults(func=cmd_oracle)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    # checked before any file is read
    if getattr(args, "workers", 1) < 1:  # tune and bench
        return _usage("--workers must be at least 1")
    empty = [flag for dest, flag in _PATH_FLAGS.items() if getattr(args, dest, None) == ""]
    if empty:
        return _usage(f"{empty[0]} must not be empty")
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
