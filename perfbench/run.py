"""tsplab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload capped-n100 --seed 0 --seconds 15 --trace 0

Run from the root of a tsplab checkout; the package is imported from its
``src/`` directory.  The run makes its inputs from ``--seed`` through the
``tsplab`` command line (timed as ``setup_s``), solves them for about
``--seconds``, checks every output, and prints a table of metrics followed,
as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
timed phase untraced and then traced, probes every layer, and reports the
per-layer metrics, including the tracing overhead (traced minus untraced end
to end).  The spans go to ``.perfbench/trace-<workload>-s<seed>.json``.
See ``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 15

# Names and units must match BENCHMARK.json.
END_TO_END = ("setup_s", "solves_per_s", "solve_s_p50", "len_mean", "overrun_max",
              "peak_rss_mb", "pass_frac")
OVERHEAD = ("solves_per_s", "solve_s_p50", "overrun_max")


def machine() -> dict:
    """Where the numbers were measured."""
    import numpy

    info = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": "unknown", "ram_gb": None}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                info["ram_gb"] = round(int(line.split()[1]) / 2**20, 1)
    except OSError:
        pass
    return info


def make_inputs(wl, seed: int, workdir: Path, reps: int) -> list[dict]:
    """Run the set-up step ``reps`` times in fresh interpreters.  Each writes
    the same files, the run's inputs."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "make_inputs.py"), "--n", str(wl.n), "--count",
           str(wl.count), "--seed", str(seed), "--out", str(workdir)]
    if wl.external:
        cmd += ["--tau", repr(wl.tau())]
    out = []
    for _ in range(reps):
        p = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        if p.returncode != 0:
            raise RuntimeError(f"set-up failed ({p.returncode}): {p.stderr.strip()}")
        out.append(json.loads(p.stdout.strip().splitlines()[-1]))
    return out


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool, *, workloads=None,
        setup_reps: int = SETUP_REPS, tamper=None) -> dict:
    """One benchmark run.  Returns the result object and prints the table.

    ``workloads`` and ``tamper`` let the smoke test substitute tiny
    workloads and corrupt a result; the command line uses neither.
    """
    from tracer import Tracer
    from workloads import WORKLOADS, Inputs, end_to_end, run_phase

    wl = (workloads or WORKLOADS)[workload]
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=base))
    try:
        # Half the set-up repeats run before the timed phase and half after,
        # so their median spans the run rather than one phase of the host.
        setups = make_inputs(wl, seed, workdir, (setup_reps + 1) // 2)
        from tsplab.fileio import parse_instances

        inputs = Inputs(workdir, [inst for inst, _ in parse_instances(workdir / "instances.txt")])
        plain = run_phase(wl, inputs, seed, seconds, Tracer(False), tamper)
        setups += make_inputs(wl, seed, workdir, setup_reps // 2)
        e2e = end_to_end(wl, plain)
        e2e["setup_s"] = (statistics.median(s["setup_s"] for s in setups), "s", len(setups))
        e2e["peak_rss_mb"] = (peak_rss_mb(wl.workers > 1), "MB", 1)
        attempted, failed = plain.attempted, plain.failed
        notes = plain.notes
        report = {k: e2e[k] for k in END_TO_END}
        if trace:
            from probes import probe_layers

            tracer = Tracer(True)
            traced = run_phase(wl, inputs, seed, seconds, tracer, tamper)
            e2e_traced = end_to_end(wl, traced)
            searches = [o.result for o in traced.outcomes
                        if wl.kind == "tune" and o.result is not None]
            tau = searches[0].best_tau if searches else wl.tau()
            layers, a, f = probe_layers(wl, inputs, seed, tau, traced, tracer)
            layers["mcts.actions_per_s"] = e2e_traced["mcts.actions_per_s"]
            for k in OVERHEAD:
                v, unit, _ = e2e[k]
                layers[f"overhead.{k}"] = (e2e_traced[k][0] - v, unit, e2e_traced[k][2])
            attempted += traced.attempted + a
            failed += traced.failed + f
            notes = notes + [f"traced phase: {x}" for x in traced.notes]
            report = layers
            tracer.write(base / f"trace-{workload}-s{seed}.json",
                         {"workload": workload, "seed": seed, "machine": machine(),
                          "end_to_end_untraced": e2e, "end_to_end_traced": e2e_traced})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"machine: {json.dumps(machine())}")
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print(f"{'metric':34} {'value':>14} {'unit':12} samples")
    shown = dict(e2e, **(report if trace else {}))
    for name, (v, unit, k) in sorted(shown.items()):
        print(f"{name:34} {v:14.6g} {unit:12} {k}")
    print(f"fail_frac {failed / max(attempted, 1):.6g} ({failed} of {attempted} checked solves)")
    for note in notes:
        print(f"note: {note}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in report.items()}}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "tsplab" / "__init__.py").is_file():
        print(f"error: no tsplab sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import tsplab

    if Path(tsplab.__file__).resolve().parent != src / "tsplab":
        print(f"error: imported tsplab from {tsplab.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
