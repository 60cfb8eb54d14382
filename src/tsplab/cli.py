"""Command-line front end.

Exit codes: 0 on success, 2 for usage errors, 1 for runtime failures.
Every run that writes an artifact also drops ``<out>.manifest.json`` beside
it, recording the tool version and the full parameter set that produced it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .bench import MctsRunSpec, aggregate, gap_rows, run_bench, run_single, score_display
from .fileio import (
    parse_instances,
    parse_ref_lengths,
    render_report,
    render_tune_table,
    write_heatmap,
    write_instances,
    write_manifest,
    write_ref_lengths,
)
from .geometry import brute_force_optimal, generate_instances
from .heatmap import softdist, zeros_heatmap
from .mcts import MctsParams, default_time_budget
from .tuner import GridSpec, default_tau, grid_search_tau


def _usage(msg: str) -> int:
    print(f"usage error: {msg}", file=sys.stderr)
    return 2


def _manifest_params(args: argparse.Namespace, **extra) -> dict:
    params = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in vars(args).items()
        if k not in ("func", "command") and (v is None or isinstance(v, (str, int, float, bool)))
    }
    params.update(extra)
    return params


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of numbers") from None


def cmd_gen(args: argparse.Namespace) -> int:
    instances = generate_instances(args.n, args.count, args.seed)
    write_instances(args.out, instances)
    write_manifest(args.out, "gen", _manifest_params(args), __version__)
    print(f"wrote {args.count} instances of size {args.n} to {args.out}")
    return 0


def cmd_heatmap(args: argparse.Namespace) -> int:
    if args.method == "softdist" and args.tau is None:
        return _usage("--tau is required with --method softdist")
    pairs = parse_instances(args.infile)
    if not pairs:
        raise ValueError(f"{args.infile}: no instances")
    binary = args.format == "binary"
    out = Path(args.out)
    make = (
        (lambda inst: softdist(inst, args.tau))
        if args.method == "softdist"
        else (lambda inst: zeros_heatmap(inst.n))
    )
    if len(pairs) == 1 and not out.is_dir():
        write_heatmap(out, make(pairs[0][0]), binary=binary)
        print(f"wrote heatmap to {out}")
    else:
        out.mkdir(parents=True, exist_ok=True)
        for i, (inst, _) in enumerate(pairs):
            write_heatmap(out / f"{i}.hmap", make(inst), binary=binary)
        print(f"wrote {len(pairs)} heatmaps to {out}/")
    write_manifest(args.out, "heatmap", _manifest_params(args), __version__)
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
    if args.method == "softdist":
        tau = args.tau if args.tau is not None else default_tau(inst.n)
        return MctsRunSpec(method="softdist", params=params, tau=tau)
    if args.method == "zeros":
        return MctsRunSpec(method="zeros", params=params)
    return MctsRunSpec(method="external", params=params, heatmap_path=args.heatmap)


def cmd_solve(args: argparse.Namespace) -> int:
    if args.heatmap and args.method not in (None, "external"):
        return _usage("--heatmap implies --method external")
    args.method = args.method or ("external" if args.heatmap else "softdist")
    if args.method == "external" and not args.heatmap:
        return _usage("--method external needs --heatmap")
    if (args.trace is None) != (args.checkpoints is None):
        return _usage("--trace and --checkpoints go together")
    checkpoints = _parse_floats(args.checkpoints, "--checkpoints") if args.checkpoints else None

    pairs = parse_instances(args.infile)
    if not pairs:
        raise ValueError(f"{args.infile}: no instances")
    specs = [_solve_spec(args, inst) for inst, _ in pairs]
    specs[0].check_batch(len(specs))
    records = []
    for i, ((inst, _), spec) in enumerate(zip(pairs, specs)):
        rec = run_single(inst, spec, str(i), checkpoints)
        records.append(rec)
        print(f"instance {rec.instance_id}: length {rec.length:.6f} in {rec.elapsed:.2f}s")
    if args.out:
        write_ref_lengths(args.out, {r.instance_id: r.length for r in records})
        write_manifest(args.out, "solve", _manifest_params(args), __version__)
        print(f"wrote lengths to {args.out}")
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write("instance_id,time_seconds,best_length\n")
            for r in records:
                for t, v in r.trace or []:
                    fh.write(f"{r.instance_id},{t!r},{v!r}\n")
        print(f"wrote traces to {args.trace}")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    pairs = parse_instances(args.infile)
    if not pairs:
        raise ValueError(f"{args.infile}: no instances")
    instances = [inst for inst, _ in pairs]
    params = MctsParams(time_budget=args.budget, seed=args.seed, max_actions=args.max_actions)
    grid = None
    if args.coarse or args.refine_step or args.refine_radius:
        if not (args.coarse and args.refine_step and args.refine_radius):
            return _usage("--coarse, --refine-step and --refine-radius go together")
        grid = GridSpec(
            coarse=tuple(_parse_floats(args.coarse, "--coarse")),
            refine_radius=args.refine_radius,
            refine_step=args.refine_step,
        )
    result = grid_search_tau(instances, params, grid, workers=args.workers)
    text = render_tune_table(result, args.report)
    if args.out:
        Path(args.out).write_text(text)
        write_manifest(args.out, "tune", _manifest_params(args), __version__)
        print(f"wrote tuning table to {args.out}")
    else:
        sys.stdout.write(text)
    print(f"best tau: {result.best_tau:g}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    import json

    pairs = parse_instances(args.infile)
    if not pairs:
        raise ValueError(f"{args.infile}: no instances")
    instances = [inst for inst, _ in pairs]
    spec_data = json.loads(Path(args.spec).read_text())
    try:
        params = MctsParams(**spec_data["params"])
        spec = MctsRunSpec(
            method=spec_data["method"],
            params=params,
            tau=spec_data.get("tau"),
            heatmap_path=spec_data.get("heatmap_path"),
        )
    except (KeyError, TypeError) as e:
        raise ValueError(f"{args.spec}: bad run spec: {e}") from None
    records = run_bench(instances, spec, workers=args.workers)
    refs = parse_ref_lengths(args.refs)
    reference = parse_ref_lengths(args.reference_lengths) if args.reference_lengths else None
    report = aggregate(records, refs, reference)
    text = render_report(report, args.report)
    if args.out:
        Path(args.out).write_text(text)
        write_manifest(args.out, "bench", _manifest_params(args, spec=spec_data), __version__)
        print(f"wrote report to {args.out}")
    else:
        sys.stdout.write(text)
    gap = f"{report.gap * 100:.4f}%"
    score = f", score {report.score_display}" if report.score_display else ""
    print(f"{spec.label()}: mean length {report.length_mean:.5f}, gap {gap}{score}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    if args.gaps:
        vals = _parse_floats(args.gaps, "--gaps")
        if len(vals) != 2:
            return _usage("--gaps needs exactly two values: reference_gap,search_gap")
        print(score_display(vals[0], vals[1])[1])
        return 0
    if not (args.refs and args.lengths):
        return _usage("give either --gaps or both --refs and --lengths")
    refs = parse_ref_lengths(args.refs)
    lengths = parse_ref_lengths(args.lengths)
    reference = parse_ref_lengths(args.reference_lengths) if args.reference_lengths else None
    gaps = gap_rows(list(lengths), list(lengths.values()), refs, reference)
    print(f"gap: {gaps.gap * 100:.4f}%")
    if reference is not None:
        print(f"reference-solver gap: {gaps.gap_reference * 100:.4f}%")
        print(f"score: {gaps.score_display}")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    pairs = parse_instances(args.infile)
    if not pairs:
        raise ValueError(f"{args.infile}: no instances")
    refs = {}
    for i, (inst, _) in enumerate(pairs):
        _tour, length = brute_force_optimal(inst)
        refs[str(i)] = length
        print(f"instance {i}: optimal length {length:.6f}")
    if args.out:
        write_ref_lengths(args.out, refs)
        write_manifest(args.out, "oracle", _manifest_params(args), __version__)
        print(f"wrote optimal lengths to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
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
    h.add_argument("--method", choices=["softdist", "zeros"], default="softdist")
    h.add_argument("--tau", type=float, help="softdist temperature")
    h.add_argument("--format", choices=["binary", "text"], default="binary")
    h.add_argument("--out", required=True, help="file for one instance, directory for many")
    h.set_defaults(func=cmd_heatmap)

    s = sub.add_parser("solve", help="run the guided search on each instance")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--method", choices=["softdist", "zeros", "external"])
    s.add_argument("--tau", type=float, help="softdist temperature (default: size-interpolated)")
    s.add_argument("--heatmap", help="external heatmap file or directory")
    s.add_argument("--budget", type=float, help="seconds per instance (default: profile-based)")
    s.add_argument("--profile", choices=["default", "short"], default="default",
                   help="fallback budget: n/10s (default) or n/25s (short)")
    s.add_argument("--alpha", type=float, default=1.0)
    s.add_argument("--beta", type=float, default=10.0)
    s.add_argument("--k", type=int, default=5)
    s.add_argument("--depth", type=int, default=10)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--max-actions", type=int, help="optional deterministic action cap")
    s.add_argument("--out", help="write a lengths CSV (instance_id,length)")
    s.add_argument("--trace", help="write best-length traces to this CSV")
    s.add_argument("--checkpoints", help="comma-separated trace times in seconds")
    s.set_defaults(func=cmd_solve)

    t = sub.add_parser("tune", help="two-stage temperature grid search")
    t.add_argument("--in", dest="infile", required=True)
    t.add_argument("--budget", type=float, required=True, help="seconds per solve")
    t.add_argument("--seed", type=int, default=0)
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
    b.add_argument("--spec", required=True, help="JSON run spec: method, tau?, params{...}")
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
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
