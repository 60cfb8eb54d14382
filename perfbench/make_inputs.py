"""Set-up step of one benchmark run, executed in a fresh interpreter.

Imports ``tsplab`` and makes the workload's inputs through ``tsplab.cli.main``
(``gen``, and ``heatmap`` when a temperature is given), timing each part.
It prints one JSON object with the timings as its last line.  The harness
runs it several times per run, because an import can only be timed once per
process.

    python3 perfbench/make_inputs.py --n 500 --count 3 --seed 0 --out DIR [--tau 0.0066]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="directory for instances.txt and maps/")
    p.add_argument("--tau", type=float, help="also write softdist heatmaps at this temperature")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    from tsplab import cli

    t1 = time.perf_counter()
    inst = f"{args.out}/instances.txt"
    with redirect_stdout(StringIO()):
        rc = cli.main(["gen", "--n", str(args.n), "--count", str(args.count),
                       "--seed", str(args.seed), "--out", inst])
        t2 = time.perf_counter()
        if rc == 0 and args.tau is not None:
            # an existing directory makes the cli write one file per instance
            Path(args.out, "maps").mkdir(exist_ok=True)
            rc = cli.main(["heatmap", "--in", inst, "--method", "softdist",
                           "--tau", repr(args.tau), "--out", f"{args.out}/maps"])
    t3 = time.perf_counter()
    if rc != 0:
        print(f"tsplab cli exited with {rc}", file=sys.stderr)
        return 1
    print(json.dumps({"import_s": t1 - t0, "gen_s": t2 - t1, "heatmap_s": t3 - t2,
                      "setup_s": t3 - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
