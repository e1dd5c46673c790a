"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.
"""

import json
import math
import time

import pytest

from linkmetrics import cli, oracle, spectral
from linkmetrics.engine import (
    ConsensusConfig,
    exact_consensus_target,
    neighbor_weight_sums,
    wac_run,
)
from linkmetrics.graph import diameter
from linkmetrics.metrics import (
    polynomial_metric,
    shift_attributes,
    total_variation_pipeline,
    tv_metric_spec,
)
from linkmetrics.rng import SplitMix64
from linkmetrics.simharness import make_wac_program, run_synchronous

from helpers import complete, cycle, er_instance, path, star


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {status}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_aggregation_identity_oracle():
    t0 = time.time()
    worst = 0.0
    for seed in range(100):
        g, y = er_instance(seed, n_lo=10, n_hi=300)
        a1, a2, a3 = oracle.exact_alphas(g, y)
        tv = oracle.exact_total_variation(g, y)
        worst = max(worst, abs(2 * a1 - 2 * a2 * a3 - tv) / max(tv, 1e-300))
    elapsed = time.time() - t0
    report(
        "aggregation identity 2*a1 - 2*a2*a3 == exact TV (100 instances, 1e-12 rel)",
        worst <= 1e-12 and elapsed < 10.0,
        f"worst rel {worst:.2e}, {elapsed:.1f}s",
    )


def test_pipeline_vs_oracle():
    t0 = time.time()
    worst = 0.0
    for seed in range(50):
        g, y = er_instance(seed + 200, n_lo=20, n_hi=200)
        got = total_variation_pipeline(g, y).total_variation
        ref = oracle.exact_total_variation(g, y)
        worst = max(worst, abs(got - ref) / max(ref, 1e-300))
    elapsed = time.time() - t0
    report(
        "TV pipeline vs oracle (50 instances, 1e-6 rel)",
        worst <= 1e-6 and elapsed < 120.0,
        f"worst rel {worst:.2e}, {elapsed:.1f}s",
    )


def test_fixed_fixtures():
    from linkmetrics.graph import from_edges

    triangle = from_edges(3, [(0, 1), (1, 2), (0, 2)])
    p3 = from_edges(3, [(0, 1), (1, 2)])
    ok = True
    for g, expect in (
        (triangle, (14.0 / 3.0, 11.0 / 6.0, 2.0, 2.0)),
        (p3, (4.5, 2.0, 2.0, 1.0)),
    ):
        r = total_variation_pipeline(g, [1.0, 2.0, 3.0])
        got = (r.alpha1, r.alpha2, r.alpha3, r.total_variation)
        ok = ok and all(abs(a - b) <= 1e-9 for a, b in zip(got, expect))
    report("fixed fixtures triangle and P3 (1e-9 abs)", ok)


def test_conservation():
    g = cli.generate_synthetic(520, 4.0 / 519, 77)
    assert g.node_count >= 400
    y = cli.generate_attributes(g, 5.0, 77)
    w = neighbor_weight_sums(g, y, 1)
    cfg = ConsensusConfig(
        step_tolerance=1e-300, spread_tolerance=1e-300, max_iterations=10_000
    )
    run = wac_run(g, y, w, cfg)
    before = math.fsum(wi * xi for wi, xi in zip(w, y))
    after = math.fsum(wi * xi for wi, xi in zip(w, run.final_states))
    drift = abs(after - before) / abs(before)
    report(
        "weighted-sum conservation over 1e4 iterations (1e-9 rel)",
        run.iterations_used == 10_000 and drift <= 1e-9,
        f"drift {drift:.2e} on n={g.node_count}",
    )


def test_min_consensus_exhaustive():
    from linkmetrics.engine import min_consensus

    ok = True
    checked = 0
    for maker in (path, cycle, star, complete):
        for n in range(2, 9):
            g = maker(n)
            diam = diameter(g)
            for seed in range(100):
                rng = SplitMix64(seed * 10_000 + n)
                x0 = [rng.random() for _ in range(n)]
                states, rounds = min_consensus(g, x0, max(diam, 1))
                ok = ok and states == [min(x0)] * n and rounds <= diam
                checked += 1
    report(
        "min-consensus exact minimum within diameter",
        ok,
        f"{checked} runs over path/cycle/star/complete",
    )


def test_spectral_criteria():
    ok_bound = True
    for seed in range(200):
        rng = SplitMix64(seed + 9000)
        g, _ = er_instance(seed + 9000, n_lo=5, n_hi=15, mean_degree=3.0)
        w = [rng.random() + 0.2 for _ in range(g.node_count)]
        delta = min(wi / di for wi, di in zip(w, g.degrees))
        eps = (0.05 + 0.9 * rng.random()) * delta
        rep = spectral.spectral_report(g, w, eps)
        ok_bound = ok_bound and abs(rep.eigenvalues[0] - 1.0) <= 1e-9 and rep.rho < 1.0

    worst_rate = 0.0
    min_trace = 10**9
    for seed in range(10):
        g = cli.generate_synthetic(20, 0.3, seed + 50)
        x0 = cli.generate_attributes(g, 5.0, seed + 50)
        w = [float(d) for d in g.degrees]
        cfg = ConsensusConfig(
            epsilon=0.2, step_tolerance=1e-30, spread_tolerance=1e-11,
            max_iterations=20_000, record_trace=True,
        )
        run = wac_run(g, x0, w, cfg)
        min_trace = min(min_trace, run.iterations_used)
        alpha = exact_consensus_target(x0, w)
        rho = spectral.spectral_report(g, w, 0.2).rho
        rho_hat = spectral.empirical_convergence_factor(run, [alpha] * g.node_count)
        worst_rate = max(worst_rate, abs(rho_hat - rho) / rho)
    report(
        "spectral: lambda1 = 1, rho < 1 inside bound; |rho_hat - rho|/rho <= 0.02",
        ok_bound and min_trace >= 200 and worst_rate <= 0.02,
        f"worst rate error {worst_rate:.2e}, shortest trace {min_trace}",
    )


def test_polynomial_tv_equivalence():
    worst = 0.0
    for seed in range(20):
        g, y = er_instance(seed + 400, n_lo=10, n_hi=60)
        tv = total_variation_pipeline(g, y).total_variation
        poly = polynomial_metric(g, y, tv_metric_spec())
        worst = max(worst, abs(poly - tv))
    report(
        "polynomial metric with TV coefficients equals TV pipeline (1e-9 abs)",
        worst <= 1e-9,
        f"worst abs {worst:.2e}",
    )


def test_shift_invariance():
    ok = True
    worst_pipe = worst_oracle = 0.0
    for seed in range(20):
        g, y = er_instance(seed + 600, n_lo=20, n_hi=100)
        shifted = shift_attributes(y, 10.0)
        ref = oracle.exact_total_variation(g, y)
        ref_s = oracle.exact_total_variation(g, shifted)
        worst_oracle = max(worst_oracle, abs(ref - ref_s) / max(ref, 1e-300))
        r = total_variation_pipeline(g, y)
        r_s = total_variation_pipeline(g, shifted)
        worst_pipe = max(
            worst_pipe, abs(r.total_variation - r_s.total_variation) / max(ref, 1e-300)
        )
        ok = ok and r_s.delta1 > r.delta1
    report(
        "TV invariant under +10 shift; Delta1 strictly larger",
        ok and worst_pipe <= 1e-6 and worst_oracle <= 1e-8,
        f"pipeline {worst_pipe:.2e}, oracle {worst_oracle:.2e}",
    )


def test_harness_equivalence():
    ok = True
    for seed in range(20):
        g, y = er_instance(seed + 800, n_lo=20, n_hi=100)
        w = neighbor_weight_sums(g, y, 1)
        eps = 0.9 * min(wi / di for wi, di in zip(w, g.degrees))
        rounds = 100
        cfg = ConsensusConfig(
            epsilon=eps, max_iterations=rounds, record_trace=True,
            step_tolerance=1e-300, spread_tolerance=1e-300,
        )
        run = wac_run(g, y, w, cfg)
        trace = run_synchronous(g, make_wac_program(w, eps), y, max_rounds=rounds)
        edge_pairs = {(i, j) for i in range(g.node_count) for j in g.adjacency[i]}
        ok = ok and trace.state_values() == [r.tolist() for r in run.trace]
        ok = ok and trace.message_pairs <= edge_pairs
    report("harness traces bit-identical to engine; locality audit", ok)


def test_desk_scale_run(tmp_path):
    t0 = time.time()
    out = tmp_path / "desk"
    cfg = cli.ExperimentConfig(
        er_n=1000, er_p=5.0 / 999, seed=42, exp_mean=5.0,
        spread_tolerance=1e-8, write_traces=False, with_oracle=True,
        out_dir=str(out),
    )
    code = cli.run_experiment(cfg)
    elapsed = time.time() - t0
    summary = json.loads((out / "summary.json").read_text())
    ref = summary["oracle"]["metric_value"]
    rel = abs(summary["oracle"]["delta"]) / max(abs(ref), 1e-300)
    report(
        "desk-scale N=1000 TV run: exit 0, < 5 min, oracle delta <= 1e-6 rel",
        code == 0 and elapsed < 300.0 and rel <= 1e-6,
        f"n={summary['graph']['n']}, {elapsed:.1f}s, rel {rel:.2e}",
    )
