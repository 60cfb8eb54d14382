"""Per-layer probes for the traced run.

Each probe times calls into one tsplab module's public functions, made from
here on the workload's own instances, temperature and search parameters.
Probe instance is batch instance 0, solved with the seed the timed phase
gave it, so ``init_state`` here repeats exactly the 2-opt work of that
solve's initialization and ``mcts.accounted_frac`` can compare like with
like.  Times are medians over repeated calls; a probe repeats until it has
run for ``min_s`` seconds, so slow layers are called once.
"""

from __future__ import annotations

import itertools
import statistics
import time
from contextlib import redirect_stdout
from dataclasses import replace
from io import StringIO

from tsplab import cli
from tsplab.bench import MctsRunSpec, instance_seed, run_bench
from tsplab.fileio import parse_heatmap, write_heatmap
from tsplab.geometry import Tour, distance_matrix, rng_for, two_opt
from tsplab.heatmap import candidate_sets, softdist
from tsplab.mcts import backpropagate, construct_tour, init_state, sample_kopt
from tsplab.tuner import evaluate_tau

from tracer import Tracer
from workloads import Inputs, Phase, Workload

Metric = tuple[float, str, int]  # value, unit, samples


def median_call(fn, min_s: float, tracer: Tracer, name: str) -> tuple[float, int]:
    """Median seconds per ``fn()`` call, over as many calls as fit in ``min_s``."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < min_s:
        with tracer.span(name):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times)


def probe_layers(wl: Workload, inputs: Inputs, seed: int, tau: float, phase: Phase,
                 tracer: Tracer) -> tuple[dict[str, Metric], int, int]:
    """Every per-layer metric, plus (attempted, failed) for the checks made
    on the way."""
    m: dict[str, Metric] = {}
    attempted = failed = 0
    insts = inputs.instances
    inst = insts[0]
    n = inst.n
    params = replace(wl.params(seed), seed=instance_seed(seed, inst))

    with tracer.span("probe.geometry", root=True):
        batch = itertools.cycle(insts)
        t, k = median_call(lambda: distance_matrix(next(batch)), 0.2, tracer,
                           "geometry.distance_matrix")
        m["geometry.distance_matrix_ms"] = (t * 1e3, "ms", k)
        start = Tour(rng_for(seed, 0, "perfbench.two_opt").permutation(n))
        t, k = median_call(lambda: two_opt(inst, start), 0.3, tracer, "geometry.two_opt")
        m["geometry.two_opt_s"] = (t, "s", k)

    with tracer.span("probe.heatmap", root=True):
        t, k = median_call(lambda: softdist(inst, tau), 0.2, tracer, "heatmap.softdist")
        m["heatmap.softdist_ms"] = (t * 1e3, "ms", k)
        h = softdist(inst, tau)
        t, k = median_call(lambda: candidate_sets(h, params.k), 0.2, tracer,
                           "heatmap.candidate_sets")
        m["heatmap.candidate_sets_ms"] = (t * 1e3, "ms", k)
        m["heatmap.dense_mb"] = (n * n * 8 / 1e6, "MB", 1)  # computed, not measured

    with tracer.span("probe.mcts", root=True):
        states = []
        t_init, k = median_call(lambda: states.append(init_state(inst, h, params)), 0.3,
                                tracer, "mcts.init_state")
        m["mcts.init_state_s"] = (t_init, "s", k)
        state = states[-1]
        rng = rng_for(seed, 0, "perfbench.sample")
        calls = ok = 0
        action = None
        with tracer.span("mcts.sample_kopt"):
            t0 = time.perf_counter()
            while calls < 200 or time.perf_counter() - t0 < 0.5:
                for _ in range(100):
                    a = sample_kopt(state, rng)
                    if a is not None:
                        ok += 1
                        action = a
                calls += 100
            t_sample = time.perf_counter() - t0
        samples_per_s = ok / t_sample
        m["mcts.samples_per_s"] = (samples_per_s, "1/s", calls)
        m["mcts.dead_end_frac"] = ((calls - ok) / calls, "ratio", calls)
        rng = rng_for(seed, 0, "perfbench.restart")
        t_restart, k = median_call(lambda: two_opt(inst, construct_tour(state, rng)), 0.3,
                                   tracer, "mcts.restart")
        m["mcts.restart_s"] = (t_restart, "s", k)
        c = state.current_length
        t, k = median_call(lambda: [backpropagate(state, c, c * (1 - 1e-4), action)
                                    for _ in range(1000)], 0.1, tracer, "mcts.backpropagate")
        m["mcts.backpropagate_us"] = (t * 1e3, "us", k * 1000)

        # solves of the probe instance: from the timed phase, or tune's check
        # solve; none when they all raised
        ref = ([o for o in phase.outcomes if o.index == 0] if wl.kind == "solve"
               else [phase.check_solve])
        ref = [o for o in ref if o is not None and o.result is not None]
        restarts = actions = wall = float("nan")
        if ref:
            restarts = statistics.fmean(o.result.restarts for o in ref)
            actions = statistics.fmean(o.result.actions_sampled for o in ref)
            wall = statistics.fmean(o.wall for o in ref)
        m["mcts.restarts"] = (restarts, "count", len(ref))
        predicted = t_init + actions / samples_per_s + restarts * t_restart
        m["mcts.accounted_frac"] = (predicted / wall, "ratio", len(ref))

    with tracer.span("probe.fileio", root=True):
        path = inputs.workdir / "probe.hmap"
        t, k = median_call(lambda: write_heatmap(path, h), 0.2, tracer, "fileio.write_heatmap")
        m["fileio.write_heatmap_ms"] = (t * 1e3, "ms", k)
        t, k = median_call(lambda: parse_heatmap(path), 0.2, tracer, "fileio.parse_heatmap")
        m["fileio.parse_heatmap_ms"] = (t * 1e3, "ms", k)
        m["fileio.heatmap_mb"] = (path.stat().st_size / 1e6, "MB", 1)

    with tracer.span("probe.bench_tuner", root=True):
        search = next((o.result for o in phase.outcomes
                       if wl.kind == "tune" and o.result is not None), None)
        if search is not None and phase.bench is not None:
            # the check already ran run_bench over the whole batch at 1 and 2
            # workers; time evaluate_tau again at the coarse temperatures
            table = dict(search.table)
            evals = []
            for t_ in wl.grid.coarse:
                with tracer.span("tuner.evaluate_tau"):
                    t0 = time.perf_counter()
                    mean = evaluate_tau(insts, t_, wl.params(seed), workers=wl.workers)
                    evals.append(time.perf_counter() - t0)
                attempted += len(insts)
                failed += len(insts) * (mean != table[round(t_, 10)])
            m["tuner.evals"] = (len(search.table), "count", 1)
            workers = wl.workers
            (recs1, wall1), (recs2, wall2) = phase.bench[1], phase.bench[workers]
            solves1 = len(recs1)
        else:
            # Also tune-n50's fallback when its grid search or check batches
            # failed.  evaluate_tau is run_bench at one worker plus the mean.  The
            # two-worker batch is instance 0 twice, the fewest solves that
            # run_bench spreads over a pool, each the same work as the one
            # solve at one worker.
            workers = 2
            with tracer.span("tuner.evaluate_tau"):
                t0 = time.perf_counter()
                mean = evaluate_tau([inst], tau, wl.params(seed), workers=1)
                wall1 = time.perf_counter() - t0
            evals = [wall1]
            solves1 = 1
            spec = MctsRunSpec(method="softdist", params=wl.params(seed), tau=tau)
            with tracer.span("bench.run_bench"):
                t0 = time.perf_counter()
                recs2 = run_bench([inst, inst], spec, workers=workers)
                wall2 = time.perf_counter() - t0
            if wl.max_actions is not None:  # capped: equal at any worker count
                attempted += len(recs2)
                failed += sum(r.length != mean for r in recs2)
            m["tuner.evals"] = (1, "count", 1)
        m["tuner.eval_s_p50"] = (statistics.median(evals), "s", len(evals))
        m["bench.scaling_eff"] = ((len(recs2) / wall2) / (workers * solves1 / wall1),
                                  "ratio", len(recs2))
        busy = sum(r.elapsed + r.heatmap_seconds for r in recs2) / workers
        m["bench.dispatch_s"] = (wall2 - busy, "s", len(recs2))

    with tracer.span("probe.cli", root=True):
        out = inputs.workdir / "probe"
        out.mkdir(exist_ok=True)
        gen = ["gen", "--n", str(n), "--count", str(len(insts)), "--seed", str(seed),
               "--out", str(out / "instances.txt")]
        heat = ["heatmap", "--in", str(out / "instances.txt"), "--method", "softdist",
                "--tau", repr(tau), "--out", str(out)]
        with redirect_stdout(StringIO()):
            t, k = median_call(lambda: cli.main(gen), 0.2, tracer, "cli.gen")
            m["cli.gen_s"] = (t, "s", k)
            t, k = median_call(lambda: cli.main(heat), 0.2, tracer, "cli.heatmap")
            m["cli.heatmap_s"] = (t, "s", k)
    return m, attempted, failed
