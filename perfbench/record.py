"""Record the bitwise-fixed results that later runs are checked against.

    python3 perfbench/record.py --seeds 0-9

For every capped workload and each seed, solves the batch once (or runs the
grid search once) and stores the lengths (or the best temperature and the
table) in ``perfbench/recorded.json``, keyed by the workload's fingerprint,
so a changed workload never meets stale values.  Existing entries for other
seeds are kept.  Run it from the root of the checkout, only on a commit whose
capped output is the reference: the engine's contract is that capped output
never changes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from spread import parse_seeds  # noqa: E402
from tracer import Tracer  # noqa: E402
from tsplab.geometry import generate_instances  # noqa: E402
from tsplab.tuner import grid_search_tau  # noqa: E402
from workloads import RECORDED, WORKLOADS, Inputs, solve_one  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True, help="e.g. 0-9 or 3,5,7")
    args = p.parse_args(argv)
    doc = json.loads(RECORDED.read_text()) if RECORDED.exists() else {}
    for wl in WORKLOADS.values():
        if wl.max_actions is None:
            continue
        table = doc.setdefault(wl.fingerprint(), {})
        for seed in parse_seeds(args.seeds):
            # the same instances the set-up step writes through `tsplab gen`
            inputs = Inputs(Path("."), generate_instances(wl.n, wl.count, seed))
            if wl.kind == "solve":
                solves = [solve_one(wl, inputs, i, seed, Tracer(False)) for i in range(wl.count)]
                table[str(seed)] = [o.result.best_length for o in solves]
            else:
                res = grid_search_tau(inputs.instances, wl.params(seed), wl.grid,
                                      workers=wl.workers)
                table[str(seed)] = {"best_tau": res.best_tau, "table": [list(r) for r in res.table]}
            print(f"{wl.name} seed {seed}: recorded", flush=True)
            RECORDED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
