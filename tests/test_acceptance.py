"""Acceptance gate: eight end-to-end criteria, one test (one verdict line) each.

The heavy suites are session fixtures shared across criteria; the whole
module is marked ``acceptance`` and dominates the suite's wall time (about
seven minutes, most of it the criterion 5 runs, criterion 4's tuner run and
criterion 1's oracle suite).
"""

import math
import time

import numpy as np
import pytest

from tsplab.bench import MctsRunSpec, compute_score, run_bench
from tsplab.fileio import parse_heatmap, parse_instances, write_heatmap, write_instances
from tsplab.geometry import (
    Tour,
    brute_force_optimal,
    distance_matrix,
    generate_instances,
    rng_for,
    tour_length,
)
from tsplab.heatmap import softdist
from tsplab.mcts import (
    KoptAction,
    MctsParams,
    backpropagate,
    edge_potential,
    init_state,
    mcts_solve,
    omega,
    sample_kopt,
)
from tsplab.tuner import default_grid, default_tau, grid_search_tau

from kopt_oracle import apply_kopt, deleted_edges

pytestmark = pytest.mark.acceptance

ORACLE_TOL = 1e-9
FORMULA_TOL = 1e-9
TRACE_TOL = 1e-12
BUDGET_SLACK = 1.05
GAP_CONSISTENCY_PP = 0.0002
NONINFERIORITY = 1.002


@pytest.fixture(scope="session")
def small_suite():
    """100 seeded instances with n in [5, 10]: brute-force optimum plus a
    1 s traced solve under the size-interpolated softdist temperature."""
    sizes = rng_for(2024, 0, "acceptance-sizes").integers(5, 11, size=100)
    runs = []
    for k, n in enumerate(sizes):
        inst = generate_instances(int(n), 1, seed=1000 + k)[0]
        _, optimum = brute_force_optimal(inst)
        runs.append({"instance": inst, "optimum": optimum})
    for k, run in enumerate(runs):
        inst = run["instance"]
        run["budget"] = 1.0
        run["checkpoints"] = (0.25, 0.5, 1.0)
        run["result"] = mcts_solve(
            inst,
            softdist(inst, default_tau(inst.n)),
            MctsParams(time_budget=run["budget"], seed=k),
            checkpoints=run["checkpoints"],
        )
    return runs


@pytest.fixture(scope="session")
def c5_runs():
    """32 TSP-200 instances, 20 s traced budgets, softdist vs zeros."""
    instances = generate_instances(200, 32, seed=7)
    params = MctsParams(time_budget=20.0, seed=0)
    checkpoints = [5.0, 10.0, 20.0]
    soft = run_bench(
        instances,
        MctsRunSpec(method="softdist", params=params, tau=default_tau(200)),
        workers=8,
        checkpoints=checkpoints,
    )
    zeros = run_bench(
        instances,
        MctsRunSpec(method="zeros", params=params),
        workers=8,
        checkpoints=checkpoints,
    )
    return {"soft": soft, "zeros": zeros, "budget": 20.0, "checkpoints": checkpoints}


def test_criterion_1_oracle_equivalence(small_suite):
    matches = sum(
        1 for run in small_suite if abs(run["result"].best_length - run["optimum"]) < ORACLE_TOL
    )
    assert matches >= 95, f"only {matches}/100 solves matched the brute-force optimum"


def test_criterion_2_softdist_formula_suite():
    t0 = time.perf_counter()
    for k in range(50):
        inst = generate_instances(50, 1, seed=3000 + k)[0]
        d = distance_matrix(inst)
        off = ~np.eye(50, dtype=bool)

        h = softdist(inst, 0.05)
        assert np.all(np.abs(h.sum(axis=1) - 1.0) < 1e-9)
        assert np.all(np.diagonal(h) == 0.0)
        nn = np.where(off, d, np.inf).argmin(axis=1)
        assert np.array_equal(h.argmax(axis=1), nn)

        # smallest nearest-vs-second gap sets a temperature at which every
        # row satisfies (d2 - d1) / tau > 40, forcing near-total mass on
        # the nearest neighbor
        ds = np.sort(np.where(off, d, np.inf), axis=1)
        gaps = ds[:, 1] - ds[:, 0]
        tau = float(gaps.min()) / 41.0
        assert tau > 0.0
        sharp = softdist(inst, tau)
        assert np.all(sharp[np.arange(50), nn] > 1.0 - 1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"formula suite took {elapsed:.2f}s"


def test_criterion_3_published_metric_arithmetic():
    # TSP-500 gap (%) and score (%) pairs for five heatmap methods
    tsp500 = {
        "att-gcn": (1.64, 0.74),
        "dimes": (1.77, 0.68),
        "utsp": (3.41, 0.35),
        "difusco": (0.51, 2.39),
        "softdist": (1.44, 0.84),
    }
    implied_pp = {}
    for name, (gap_pct, score_pct) in tsp500.items():
        gap, score = gap_pct / 100.0, score_pct / 100.0
        implied = gap * score  # reference-solver gap recovered from Score = ref/search
        assert math.isclose(compute_score(implied, gap), score, rel_tol=1e-12)
        implied_pp[name] = implied * 100.0
    mean_pp = sum(implied_pp.values()) / len(implied_pp)
    assert round(mean_pp, 4) == 0.0121
    for name, value in implied_pp.items():
        assert abs(value - mean_pp) <= GAP_CONSISTENCY_PP, (
            f"{name}: implied reference gap {value:.6f}pp deviates from "
            f"mean {mean_pp:.6f}pp by more than {GAP_CONSISTENCY_PP}pp"
        )

    # same inversion for the matched-runtime table; all six methods land
    # in a narrow common band
    matched = {
        "att-gcn": (1.02, 5.38),
        "dimes": (1.26, 4.35),
        "difusco": (0.90, 6.12),
        "utsp": (1.09, 5.05),
        "softdist": (1.03, 5.32),
        "zeros": (1.06, 5.20),
    }
    for name, (gap_pct, score_pct) in matched.items():
        gap, score = gap_pct / 100.0, score_pct / 100.0
        implied = gap * score
        assert math.isclose(compute_score(implied, gap), score, rel_tol=1e-12)
        assert 0.05475 <= implied * 100.0 <= 0.05515, (
            f"{name}: implied reference gap {implied * 100.0:.6f}pp outside the band"
        )


def test_criterion_4_tuner_interior_minimum():
    instances = generate_instances(100, 64, seed=0)
    # The 2 s budget, capped at 60k actions: what the budget sampled when
    # the search loop ran in Python.  With the compiled loop a full 2 s
    # (8 workers, 2 cores) samples ~200k actions, and the mean length is
    # then flat within 0.07% from tau=0.0005 to 0.1, so the verdict would
    # be decided by per-temperature noise.  Where the cap binds first, the
    # table is bitwise reproducible.
    params = MctsParams(time_budget=2.0, seed=0, max_actions=60_000)
    result = grid_search_tau(instances, params, default_grid(), workers=8)
    table = dict(result.table)
    left, right = table[0.0010], table[0.0100]
    best = result.best_tau
    detail = f"best_tau={best:.4f} value={table[best]:.5f} endpoints {left:.5f}/{right:.5f}"
    assert 0.0010 < best < 0.0100, f"best temperature not interior: {detail}"
    assert table[best] < left and table[best] < right, detail


def test_criterion_5_softdist_not_worse_than_zeros(c5_runs):
    mean_soft = float(np.mean([r.length for r in c5_runs["soft"]]))
    mean_zeros = float(np.mean([r.length for r in c5_runs["zeros"]]))
    assert mean_soft <= NONINFERIORITY * mean_zeros, (
        f"softdist mean {mean_soft:.5f} vs zeros mean {mean_zeros:.5f}"
    )


def test_criterion_6_anytime_property(small_suite, c5_runs):
    def check(trace, checkpoints, final_length, elapsed, budget):
        assert [t for t, _ in trace] == list(checkpoints)
        values = [v for _, v in trace]
        assert all(b <= a + TRACE_TOL for a, b in zip(values, values[1:]))
        assert values[-1] == final_length
        assert elapsed <= BUDGET_SLACK * budget

    for run in small_suite:
        r = run["result"]
        check(r.trace, run["checkpoints"], r.best_length, r.elapsed, run["budget"])
    for rec in c5_runs["soft"] + c5_runs["zeros"]:
        check(rec.trace, c5_runs["checkpoints"], rec.length, rec.elapsed, c5_runs["budget"])


def test_criterion_7_engine_formula_units():
    inst = generate_instances(8, 1, seed=77)[0]
    h = np.full((8, 8), 0.5)
    np.fill_diagonal(h, 0.0)
    state = init_state(inst, h, MctsParams(time_budget=1.0, seed=0))
    assert np.all(state.W[~np.eye(8, dtype=bool)] == 50.0)
    assert omega(state, 0) == 50.0

    # potential on a uniform row: pure weight ratio, then the exploration
    # bonus at M=1 with Q=0 and with Q=1
    assert edge_potential(state, 0, 1) == 1.0
    state.M = 1
    assert abs(edge_potential(state, 0, 1) - (1.0 + math.sqrt(math.log(2.0)))) < FORMULA_TOL
    state.Q[0, 1] = state.Q[1, 0] = 1
    expected = 1.0 + math.sqrt(math.log(2.0) / 2.0)
    assert abs(edge_potential(state, 0, 1) - expected) < FORMULA_TOL

    before = state.W[1, 2]
    backpropagate(state, 100.0, 99.0, KoptAction((0, 1, 2, 3, 0)))
    assert abs(state.W[1, 2] - before - 10.0 * (math.exp(0.01) - 1.0)) < FORMULA_TOL
    assert np.array_equal(state.W, state.W.T)

    checked = 0
    for seed in range(40):
        inst = generate_instances(10 + 3 * (seed % 8), 1, seed=500 + seed)[0]
        d = distance_matrix(inst)
        state = init_state(
            inst, softdist(inst, 0.05), MctsParams(time_budget=1.0, seed=seed)
        )
        rng = rng_for(seed, 1, "acceptance-actions")
        base = Tour(state.current.copy())
        base_len = tour_length(inst, base)
        for _ in range(40):
            action = sample_kopt(state, rng)
            if action is None:
                continue
            new_len = tour_length(inst, apply_kopt(inst, base, action))
            delta = sum(d[u, v] for u, v in action.added_edges()) - sum(
                d[u, v] for u, v in deleted_edges(action)
            )
            assert abs((new_len - base_len) - delta) < FORMULA_TOL
            checked += 1
            if checked >= 1000:
                break
        if checked >= 1000:
            break
    assert checked >= 1000, f"only {checked} randomized actions checked"


def test_criterion_8_determinism_and_round_trips(tmp_path):
    instances = generate_instances(30, 6, seed=55)
    spec = MctsRunSpec(
        method="softdist",
        params=MctsParams(time_budget=10.0, seed=0, max_actions=1500),
        tau=0.01,
    )
    by_workers = {w: run_bench(instances, spec, workers=w) for w in (1, 4, 8)}
    for w in (4, 8):
        for a, b in zip(by_workers[1], by_workers[w]):
            assert a.instance_id == b.instance_id
            assert a.length == b.length, f"workers=1 vs {w} diverged on {a.instance_id}"
            assert a.seed == b.seed

    ipath = tmp_path / "round.txt"
    write_instances(ipath, [(instances[0], Tour(np.arange(30))), (instances[1], None)])
    parsed = parse_instances(ipath)
    assert np.array_equal(parsed[0][0].points, instances[0].points)
    assert np.array_equal(parsed[1][0].points, instances[1].points)
    assert parsed[0][1].order.tolist() == list(range(30))

    hpath = tmp_path / "round.hmap"
    h = softdist(instances[0], 0.0123)
    write_heatmap(hpath, h, binary=True)
    assert np.array_equal(parse_heatmap(hpath), h)
