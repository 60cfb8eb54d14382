"""The benchmark's workloads: their inputs, timed phases and correctness checks.

A run solves a fixed batch of generated instances.  The timed phase makes
passes over the batch and starts another solve (or, for tuning, another
grid search) while the phase has lasted less than ``--seconds``; the first
pass always completes.  A faster program therefore repeats work on the same
inputs instead of moving to new ones, so quality figures stay comparable.
Capped solves are bitwise reproducible, so every repeat must equal the first
result for its instance, and results for seeds listed in ``recorded.json``
must equal the values recorded there.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from tsplab.bench import MctsRunSpec, instance_seed, run_bench
from tsplab.fileio import parse_heatmap
from tsplab.geometry import TspInstance, is_permutation, tour_length
from tsplab.heatmap import softdist
from tsplab.mcts import MctsParams, SolveResult, mcts_solve
from tsplab.tuner import GridSpec, TuneResult, default_tau, grid_search_tau

from tracer import Tracer

RECORDED = Path(__file__).with_name("recorded.json")


@dataclass(frozen=True)
class Workload:
    """One workload.  ``kind`` is ``"solve"`` (one ``mcts_solve`` per
    instance, in this process) or ``"tune"`` (``grid_search_tau`` over the
    whole batch).  ``external`` reads heatmaps written at set-up through
    ``fileio.parse_heatmap`` instead of calling ``softdist`` per solve."""

    name: str
    kind: str
    n: int
    count: int
    time_budget: float
    max_actions: int | None = None
    checkpoints: tuple[float, ...] | None = None
    external: bool = False
    grid: GridSpec | None = None
    workers: int = 1

    def params(self, seed: int) -> MctsParams:
        return MctsParams(time_budget=self.time_budget, seed=seed,
                          max_actions=self.max_actions)

    def tau(self) -> float:
        return default_tau(self.n)

    def fingerprint(self) -> str:
        """Digest of every setting that affects results; keys ``recorded.json``."""
        text = json.dumps(asdict(self), sort_keys=True)
        return f"{self.name}/{hashlib.blake2b(text.encode(), digest_size=6).hexdigest()}"


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # The sampler does nearly all the work: init_state takes ~0.07 s and
        # 30k actions ~7 s.  With the default stagnation limit (100n) that
        # cap gives 1-2 restarts per solve.  The wall budget never binds, so
        # output is bitwise fixed and only time can move.
        Workload("capped-n100", "solve", n=100, count=3, time_budget=600.0,
                 max_actions=30000),
        # The paper's external-heatmap path at a fixed wall budget.  Today the
        # dense 2-opt inside init_state takes ~9-11 s and the sampler never
        # runs; the 2 s budget is kept below that on purpose so the overrun
        # shows in overrun_max instead of being hidden by a longer budget.
        Workload("anytime-n500", "solve", n=500, count=3, time_budget=2.0,
                 checkpoints=(0.5, 1.0, 2.0), external=True),
        # Many short capped solves across two worker processes: a pool per
        # temperature, and per-solve pickling, softdist, init_state and seeding.
        Workload("tune-n50", "tune", n=50, count=12, time_budget=600.0, max_actions=1000,
                 grid=GridSpec(coarse=(0.005, 0.01, 0.02, 0.04), refine_radius=0.004,
                               refine_step=0.002), workers=2),
    )
}


@dataclass
class SolveOutcome:
    index: int  # position in the batch
    seed: int  # the solve seed, derived from the instance content
    wall: float  # seconds around the mcts_solve call
    result: SolveResult | None  # None when the solve raised
    error: str = ""


@dataclass
class SearchOutcome:
    wall: float
    result: TuneResult | None  # None when the search raised
    error: str = ""


@dataclass
class Phase:
    """What one timed phase did, and the failures its checks found."""

    wall: float
    outcomes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    # tune only: the run_bench records and walls per worker count, and a
    # direct solve of instance 0 at the tuned temperature
    bench: dict | None = None
    check_solve: SolveOutcome | None = None

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.notes.append(why)


@dataclass
class Inputs:
    """The generated files of one run, as the program reads them."""

    workdir: Path
    instances: list[TspInstance]

    def heatmap_path(self, i: int) -> Path:
        return self.workdir / "maps" / f"{i}.hmap"


def solve_one(wl: Workload, inputs: Inputs, i: int, seed: int, tracer: Tracer) -> SolveOutcome:
    inst = inputs.instances[i]
    params = replace(wl.params(seed), seed=instance_seed(seed, inst))
    try:
        with tracer.span("solve", root=True):
            if wl.external:
                with tracer.span("fileio.parse_heatmap"):
                    h = parse_heatmap(inputs.heatmap_path(i))
            else:
                with tracer.span("heatmap.softdist"):
                    h = softdist(inst, wl.tau())
            with tracer.span("mcts.mcts_solve"):
                t0 = time.perf_counter()
                res = mcts_solve(inst, h, params, checkpoints=wl.checkpoints)
                wall = time.perf_counter() - t0
    except Exception as e:  # a solve that raises is counted as failed, not fatal
        return SolveOutcome(i, params.seed, 0.0, None, repr(e))
    return SolveOutcome(i, params.seed, wall, res)


def timed_phase(wl: Workload, inputs: Inputs, seed: int, seconds: float,
                tracer: Tracer) -> Phase:
    count = len(inputs.instances)
    outcomes: list = []
    t0 = time.perf_counter()
    k = 0
    while True:
        if wl.kind == "solve":
            outcomes.append(solve_one(wl, inputs, k % count, seed, tracer))
            first_pass = k + 1 < count
        else:
            t = time.perf_counter()
            try:
                with tracer.span("tuner.grid_search_tau", root=True):
                    res = grid_search_tau(inputs.instances, wl.params(seed), wl.grid,
                                          workers=wl.workers)
                outcomes.append(SearchOutcome(time.perf_counter() - t, res))
            except Exception as e:  # counted as failed, not fatal
                outcomes.append(SearchOutcome(time.perf_counter() - t, None, repr(e)))
            first_pass = False
        k += 1
        if not first_pass and time.perf_counter() - t0 >= seconds:
            break
    return Phase(wall=time.perf_counter() - t0, outcomes=outcomes)


# -- checks -------------------------------------------------------------------


def solve_errors(wl: Workload, inst: TspInstance, res: SolveResult) -> list[str]:
    """Per-solve checks: a valid tour, an honest length, a sound trace, a binding cap."""
    errs = []
    if not is_permutation(res.best.order, inst.n):
        return ["tour is not a permutation of 0..n-1"]
    ref = tour_length(inst, res.best)
    if not abs(res.best_length - ref) <= 1e-9 * ref:
        errs.append(f"best_length {res.best_length!r} != tour_length {ref!r}")
    if wl.checkpoints is not None:
        vals = [v for _, v in res.trace or []]
        if len(vals) != len(wl.checkpoints):
            errs.append("trace has the wrong number of checkpoints")
        elif any(b > a for a, b in zip(vals, vals[1:])):
            errs.append("trace increases")
        elif vals[-1] != res.best_length:
            errs.append("trace does not end at best_length")
    if wl.max_actions is not None and res.actions_sampled != wl.max_actions:
        errs.append(f"cap did not bind: {res.actions_sampled} actions")
    return errs


def load_recorded(wl: Workload, seed: int):
    if not RECORDED.exists():
        return None
    return json.loads(RECORDED.read_text()).get(wl.fingerprint(), {}).get(str(seed))


def check_solves(wl: Workload, inputs: Inputs, seed: int, phase: Phase) -> None:
    first: dict[int, SolveOutcome] = {}
    recorded = load_recorded(wl, seed) if wl.max_actions is not None else None
    for o in phase.outcomes:
        phase.attempted += 1
        if o.result is None:
            phase.fail(1, f"instance {o.index}: solve raised {o.error}")
            continue
        errs = solve_errors(wl, inputs.instances[o.index], o.result)
        if wl.max_actions is not None:
            f = first.setdefault(o.index, o)
            if o.result.best_length != f.result.best_length or not np.array_equal(
                o.result.best.order, f.result.best.order
            ):
                errs.append("capped repeat differs from the first solve of its instance")
            if recorded is not None and o.result.best_length != recorded[o.index]:
                errs.append(f"length {o.result.best_length!r} != recorded {recorded[o.index]!r}")
        if errs:
            phase.fail(1, f"instance {o.index}: " + "; ".join(errs))
    if wl.max_actions is not None:
        phase.notes.append(
            f"recorded lengths for seed {seed}: {'checked' if recorded else 'none on file'}"
        )


def _record_key(r) -> tuple:
    return (r.instance_id, r.length, r.seed, r.trace)


def sorted_mean(lengths) -> float:
    """``evaluate_tau``'s objective: the mean of the sorted lengths."""
    return float(np.sort(np.array(lengths)).mean())


def bench_pair(instances: list[TspInstance], spec: MctsRunSpec, workers: int,
               tracer: Tracer) -> dict:
    """``run_bench`` on the same batch at one worker and at ``workers``."""
    out = {}
    for w in (1, workers):
        with tracer.span(f"bench.run_bench.w{w}", root=True):
            t0 = time.perf_counter()
            recs = run_bench(instances, spec, workers=w)
            out[w] = (recs, time.perf_counter() - t0)
    return out


def check_tune(wl: Workload, inputs: Inputs, seed: int, phase: Phase, tracer: Tracer) -> None:
    """The grid search is deterministic: every repeat, the recorded result,
    the workers=1 and workers=2 batches and a direct solve must all agree."""
    per_search = len(inputs.instances)
    first = phase.outcomes[0].result
    for o in phase.outcomes:
        if o.result is None or first is None:
            phase.attempted += per_search
            phase.fail(per_search, f"grid search raised {o.error}")
            continue
        phase.attempted += per_search * len(o.result.table)
        if o.result != first:
            phase.fail(per_search * len(o.result.table), "grid search repeat differs from the first")
    if first is None:
        return
    recorded = load_recorded(wl, seed)
    if recorded is not None:
        table = tuple((t, v) for t, v in recorded["table"])
        if first.best_tau != recorded["best_tau"] or first.table != table:
            phase.fail(per_search * len(first.table), "grid search differs from recorded.json")
    phase.notes.append(f"recorded grid search for seed {seed}: "
                       f"{'checked' if recorded else 'none on file'}")

    params = wl.params(seed)
    spec = MctsRunSpec(method="softdist", params=params, tau=first.best_tau)
    phase.bench = bench_pair(inputs.instances, spec, wl.workers, tracer)
    one, many = phase.bench[1][0], phase.bench[wl.workers][0]
    phase.attempted += len(one) + len(many)
    bad = sum(_record_key(a) != _record_key(b) for a, b in zip(one, many))
    if bad or len(one) != len(many):
        phase.fail(2 * max(bad, 1), "run_bench records differ between workers=1 and workers>1")
    if sorted_mean([r.length for r in one]) != dict(first.table)[first.best_tau]:
        phase.fail(len(one), "run_bench mean does not reproduce the table at best_tau")

    # a direct solve of instance 0 must give the tour behind the batch record
    inst = inputs.instances[0]
    seed0 = instance_seed(params.seed, inst)
    h = softdist(inst, first.best_tau)
    t0 = time.perf_counter()
    res = mcts_solve(inst, h, replace(params, seed=seed0))
    phase.check_solve = SolveOutcome(0, seed0, time.perf_counter() - t0, res)
    phase.attempted += 1
    errs = solve_errors(wl, inst, res)
    if res.best_length != one[0].length:
        errs.append("direct solve differs from its run_bench record")
    if errs:
        phase.fail(1, "instance 0: " + "; ".join(errs))


def run_phase(wl: Workload, inputs: Inputs, seed: int, seconds: float, tracer: Tracer,
              tamper: Callable[[list], None] | None = None) -> Phase:
    """Timed phase, then its checks.  ``tamper`` lets a test corrupt the
    outcomes between the two, to show that the checks catch it."""
    phase = timed_phase(wl, inputs, seed, seconds, tracer)
    if tamper is not None:
        tamper(phase.outcomes)
    try:
        if wl.kind == "solve":
            check_solves(wl, inputs, seed, phase)
        else:
            check_tune(wl, inputs, seed, phase, tracer)
    except Exception as e:  # a check that cannot run fails the whole phase
        phase.attempted = max(phase.attempted, 1)
        phase.fail(phase.attempted - phase.failed, f"check raised {e!r}")
    return phase


# -- end-to-end metrics ---------------------------------------------------------


def end_to_end(wl: Workload, phase: Phase) -> dict[str, tuple[float, str, int]]:
    """``name -> (value, unit, samples)`` for every metric measured in the
    phase.  ``setup_s`` and ``peak_rss_mb`` are added by the caller.

    Figures come from the solves that returned; one with no such solve reads
    NaN, and the failures show in ``pass_frac``.  ``mcts.actions_per_s`` is
    measured here but reported per layer: it is 0 on anytime-n500 today,
    and an end-to-end metric must never be 0."""
    m: dict[str, tuple[float, str, int]] = {}
    nan = float("nan")
    if wl.kind == "solve":
        outs = [o for o in phase.outcomes if o.result is not None]
        walls = [o.wall for o in outs]
        by_inst: dict[int, list[float]] = {}
        for o in outs:
            by_inst.setdefault(o.index, []).append(o.result.best_length)
        actions = sum(o.result.actions_sampled for o in outs)
        m["solves_per_s"] = (len(outs) / phase.wall, "1/s", len(outs))
        m["mcts.actions_per_s"] = (actions / sum(walls) if outs else nan, "1/s", len(outs))
        m["len_mean"] = (statistics.fmean(statistics.fmean(v) for v in by_inst.values())
                         if by_inst else nan, "unit_length", len(by_inst))
        overruns = [o.result.elapsed / wl.time_budget for o in outs]
        tail = tail_percentile(walls)
        if tail is not None:
            m[f"solve_s_p{tail[0]:g}"] = (tail[1], "s", len(walls))
    else:
        done = [o for o in phase.outcomes if o.result is not None]
        solves = sum(len(o.result.table) for o in done) * wl.count
        m["solves_per_s"] = (solves / phase.wall, "1/s", solves)
        m["mcts.actions_per_s"] = (wl.max_actions * solves / phase.wall, "1/s", solves)
        m["len_mean"] = (dict(done[0].result.table)[done[0].result.best_tau] if done
                         else nan, "unit_length", wl.count)
        # grid_search_tau does not expose its solves' times, so a solve's wall
        # is each search's wall times its workers over its solves.  The check
        # batches' own times span a few seconds, too short a window on a
        # shared host for a steady figure.
        walls = [o.wall * wl.workers / (len(o.result.table) * wl.count) for o in done]
        overruns = [w / wl.time_budget for w in walls]
    m["solve_s_p50"] = (statistics.median(walls) if walls else nan, "s", len(walls))
    m["overrun_max"] = (max(overruns, default=nan), "ratio", len(overruns))
    m["pass_frac"] = ((phase.attempted - phase.failed) / max(phase.attempted, 1), "ratio",
                      phase.attempted)
    return m


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest of p90/p99/p99.9 with at least ten samples above it, if any."""
    best = None
    for p in (90.0, 99.0, 99.9):
        if len(values) * (1.0 - p / 100.0) >= 10.0:
            q = statistics.quantiles(values, n=1000, method="inclusive")
            best = (p, q[int(round(p * 10)) - 1])
    return best
