"""End-to-end acceptance checks for the event-triggered estimation scheme.

Each test prints a single PASS/FAIL line with the measured quantities, so
the suite output doubles as an acceptance report. The expensive closed-loop
runs are shared through module-scoped fixtures.
"""

import dataclasses
import time

import numpy as np
import pytest

from etmhe import (Box, IossCertificate, check_dissipation, harness,
                   min_horizon, rges_constants, run_closed_loop,
                   run_closed_loop_batch, verify_proposition1)
from etmhe.harness import POST_TRANSIENT_START, check_rges, performance_metrics
from etmhe.certificate import max_generalized_eigenvalue

SEEDS = range(10)


def report(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def acceptance_runs(cfg, seeds):
    """({seed: (event-triggered, always-solve) trace pair}, seconds taken),
    each kind run as one lockstep batch."""
    start = time.perf_counter()
    et = run_closed_loop_batch([dataclasses.replace(cfg, seed=seed)
                                for seed in seeds])
    std = run_closed_loop_batch([dataclasses.replace(cfg, seed=seed, alpha=0.0)
                                 for seed in seeds])
    runs = dict(zip(seeds, zip(et, std)))
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def seed_runs(bench_cfg):
    """The trace pairs of seeds 0..9."""
    return acceptance_runs(bench_cfg, SEEDS)


def test_criterion_1_minimum_horizon(bench_cert):
    start = time.perf_counter()
    M_min = min_horizon(bench_cert)
    elapsed = time.perf_counter() - start
    report(1, M_min == 15 and elapsed < 1.0,
           f"min_horizon={M_min} (expected 15), {elapsed:.3f}s")


def test_criterion_2_event_rate(seed_runs):
    runs, elapsed = seed_runs
    fracs = [et.event_fraction for et, _ in runs.values()]
    ok = (all(0.06 <= f <= 0.30 for f in fracs)
          and 0.10 <= np.mean(fracs) <= 0.20
          and elapsed < 120.0)
    report(2, ok, f"per-seed fractions {min(fracs):.2f}-{max(fracs):.2f}, "
                  f"mean {np.mean(fracs):.3f}, runs took {elapsed:.1f}s")


def test_criterion_3_oracle_equivalence(bench_cfg):
    start = time.perf_counter()
    worst_disc, worst_cost = 0.0, 0.0
    for seed in range(5):
        rep = verify_proposition1(dataclasses.replace(bench_cfg, M=5, T=40, seed=seed))
        worst_disc = max(worst_disc, rep.max_discrepancy)
        worst_cost = max(worst_cost, rep.max_cost_rel_err)
    elapsed = time.perf_counter() - start
    ok = worst_disc <= 1e-6 and worst_cost <= 1e-9 and elapsed < 60.0
    report(3, ok, f"max estimate discrepancy {worst_disc:.2e} (<= 1e-6), "
                  f"max cost relative error {worst_cost:.2e} (<= 1e-9), "
                  f"{elapsed:.1f}s")


def test_criterion_4_trigger_algebra(seed_runs):
    runs, _ = seed_runs
    ok = True
    for et, std in runs.values():
        for t in range(1, et.T + 1):
            if not et.gamma[t]:
                ok &= et.d[t + 1] == et.d[t]
            expected_delta = 0 if et.gamma[t] else et.delta[t - 1] + 1
            ok &= et.delta[t] == expected_delta
            if et.d[t] == 0.0:
                ok &= et.gamma[t] == 1
        ok &= bool(np.all(std.gamma[1:] == 1))
    report(4, ok, "d frozen between events, delta recursion exact, "
                  "d=0 forces an event, alpha=0 solves every step "
                  f"({len(runs)} seeds x 2 runs)")


def test_criterion_5_rges_bound(bench_cfg, seed_runs):
    runs, _ = seed_runs
    # Cross-check the eigenvalue behind the constants with the
    # characteristic polynomial det(P2 - lam P1) = 0.
    A, B = bench_cfg.cert.P2, bench_cfg.cert.P1
    coeffs = [B[0, 0] * B[1, 1] - B[0, 1] ** 2,
              -(A[0, 0] * B[1, 1] + A[1, 1] * B[0, 0] - 2 * A[0, 1] * B[0, 1]),
              A[0, 0] * A[1, 1] - A[0, 1] ** 2]
    lam_poly = max(np.roots(coeffs).real)
    lam = max_generalized_eigenvalue(A, B)
    eig_ok = abs(lam - lam_poly) <= 1e-9 * max(abs(lam_poly), 1.0)

    constants = rges_constants(bench_cfg.cert, bench_cfg.alpha, bench_cfg.M)
    constants_std = rges_constants(bench_cfg.cert, 0.0, bench_cfg.M)
    violations, events, nonconv = 0, 0, 0
    for et, std in runs.values():
        for trace, consts in ((et, constants), (std, constants_std)):
            rep = check_rges(trace, consts)
            violations += rep.n_violations
            events += trace.n_events
            nonconv += int(np.sum(trace.gamma[1:]
                                  & ~trace.solver_converged[1:]))
    frac = nonconv / events
    ok = eig_ok and violations == 0 and frac < 0.01
    report(5, ok, f"eigenvalue vs char.poly diff {abs(lam - lam_poly):.1e}, "
                  f"{violations} bound violations over {len(runs)}x2 runs, "
                  f"non-converged solves {nonconv}/{events} ({frac:.2%})")


def test_criterion_6_accuracy_vs_standard(seed_runs):
    runs, _ = seed_runs
    ratios = [performance_metrics(et, std).post_rmse_ratio
              for et, std in runs.values()]
    ok = all(r <= 2.0 for r in ratios)
    report(6, ok, f"post-transient (t >= {POST_TRANSIENT_START}) RMSE ratios "
                  f"{min(ratios):.2f}-{max(ratios):.2f} (all <= 2)")


def test_headline_fewer_solves_same_accuracy(bench_cfg, seed_runs, monkeypatch):
    # The paper's headline: far fewer solves than standard MHE at no loss
    # of accuracy. Solving at every step with the alpha = 5 cost (trigger
    # forced to fire) is as accurate as standard MHE: the trigger, not the
    # cost, saves the solves.
    runs, _ = seed_runs
    metrics = [performance_metrics(et, std) for et, std in runs.values()]
    reductions = [m.solve_reduction_pct for m in metrics]
    ratios = [m.post_rmse_ratio for m in metrics]
    monkeypatch.setattr(harness, "evaluate_trigger", lambda state, cert: True)
    forced = run_closed_loop_batch([dataclasses.replace(bench_cfg, seed=seed)
                                    for seed in runs])
    forced_dev = [abs(performance_metrics(tr, std).post_rmse_ratio - 1.0)
                  for tr, (_, std) in zip(forced, runs.values())]
    ok = (min(reductions) >= 80.0 and np.median(ratios) <= 1.0
          and all(tr.event_fraction == 1.0 for tr in forced)
          and max(forced_dev) <= 0.02)
    detail = (f"solve reduction {min(reductions):.0f}-{max(reductions):.0f}% "
              f"(mean {np.mean(reductions):.1f}%, >= 80%), post-transient RMSE "
              f"ratio median {np.median(ratios):.2f} (<= 1, below 1 on "
              f"{sum(r < 1 for r in ratios)}/{len(ratios)} seeds), forced firing "
              f"at alpha={bench_cfg.alpha:g} within {max(forced_dev):.2%} of "
              f"standard MHE (<= 2%)")
    print(f"HEADLINE: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"headline: {detail}"


def test_criterion_7_perfect_information(bench_cfg, zero_disturbance):
    cfg = dataclasses.replace(bench_cfg, T=50, xhat0=np.array([3.0, 1.0]))
    trace = run_closed_loop(cfg)
    worst = float(np.max(trace.err_norm))
    report(7, worst <= 1e-8,
           f"zero noise, exact initial estimate: max error {worst:.2e} (<= 1e-8)")


def test_criterion_8_dissipation_discrimination(bench_cfg):
    region = Box(np.zeros(2), np.full(2, 5.0))
    cert = bench_cfg.cert
    corrupted = IossCertificate(P1=cert.P1, P2=cert.P2, Q=cert.Q, R=cert.R,
                                eta=0.01)
    bad = check_dissipation(corrupted, bench_cfg.model, region, 10_000,
                            np.random.default_rng(0))
    good = check_dissipation(cert, bench_cfg.model, region, 10_000,
                             np.random.default_rng(0))
    ok = bad.n_violations >= 1
    report(8, ok, f"corrupted certificate (eta=0.01): {bad.n_violations} "
                  f"violations flagged; benchmark certificate violation "
                  f"fraction {good.violation_fraction:.4f} (reported, not failed)")
