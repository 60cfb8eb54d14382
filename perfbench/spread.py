"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json's bounds.

    python3 perfbench/spread.py --workload capped-n100 --seeds 0-9 [--out runs.jsonl]

Runs the benchmark command once per seed (untraced, at ``run_seconds``) and
prints, per metric, the median, the quartiles and the spread: the distance
between the first and third quartile (``statistics.quantiles(values, n=4)``)
as a share of the median.  A spread wider than a third of the metric's bound
is flagged.  Run it from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,7")
    p.add_argument("--out", help="append each run's result line to this file")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    failed = 0
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        line = proc.stdout.strip().splitlines()[-1]
        result = json.loads(line)
        failed += result["failed"]
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)

    print(f"\n{args.workload}: {len(values['setup_s'])} runs, {failed} failed checks")
    print(f"{'metric':14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    steady = True
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = ""
        if spread > bounds[name] / 3:
            flag, steady = "  > bound/3", False
        print(f"{name:14} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} {bounds[name]:6.2f}{flag}")
    return 0 if steady and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
