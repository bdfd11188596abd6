"""Mutant battery: each deliberate fault below must be rejected by a named
tier-1 check, run here against the mutant.

Each test first runs its check on the unmutated package (it must pass on
the same inputs), then applies the mutant, by monkeypatch or as an edited
trace, and asserts that the check fails.
"""

import dataclasses
import types

import numpy as np
import pytest

from etmhe import EtmState, harness, mhe, run_closed_loop, trigger

import test_acceptance
import test_harness
import test_mhe
import test_trigger

SEEDS = (0, 1)


def seed_runs(cfg):
    """The acceptance trace pairs of SEEDS."""
    return test_acceptance.acceptance_runs(cfg, SEEDS)


@pytest.fixture(scope="module")
def runs(bench_cfg):
    return seed_runs(bench_cfg)


def test_frozen_estimate(runs):
    """An estimate frozen at xhat0 fails criterion 6 (accuracy against
    standard MHE)."""
    check = test_acceptance.test_criterion_6_accuracy_vs_standard
    check(runs)
    pairs, elapsed = runs

    def frozen(trace):
        xhat = np.tile(trace.xhat[0], (trace.T + 1, 1))
        return dataclasses.replace(trace, xhat=xhat,
                                   err_norm=np.linalg.norm(trace.x - xhat, axis=1))

    mutant = {seed: (frozen(et), std) for seed, (et, std) in pairs.items()}
    with pytest.raises(AssertionError, match="criterion 6"):
        check((mutant, elapsed))


def test_offset_event_estimates(bench_cfg, monkeypatch, zero_disturbance):
    """+0.3 on every event-time estimate fails criterion 7 (perfect
    information)."""
    check = test_acceptance.test_criterion_7_perfect_information
    check(bench_cfg, zero_disturbance)
    real = harness.solve_nlp_batch

    def offset(problems, model):
        solutions = []
        for sol in real(problems, model):
            x_seq = sol.x_seq.copy()
            x_seq[-1] += 0.3
            solutions.append(dataclasses.replace(sol, x_seq=x_seq))
        return solutions

    monkeypatch.setattr(harness, "solve_nlp_batch", offset)
    with pytest.raises(AssertionError, match="criterion 7"):
        check(bench_cfg, zero_disturbance)


def test_prior_weight_one_power_short(bench_model, bench_cert, monkeypatch):
    """A prior weight of 2 eta^(Mt-1) instead of 2 eta^Mt fails the explicit
    cost sum of test_mhe."""
    check = test_mhe.TestEvalCost().test_matches_explicit_sum
    check(bench_model, bench_cert)
    real = mhe.cost_residuals

    def heavier_prior(window, cert, alpha):
        residuals, n = real(window, cert, alpha), len(cert.P2)

        def mutated(x_init, w_seq, y_seq):
            r = residuals(x_init, w_seq, y_seq)
            r[..., :n] /= np.sqrt(cert.eta)
            return r

        return mutated

    monkeypatch.setattr(mhe, "cost_residuals", heavier_prior)
    with pytest.raises(AssertionError):
        check(bench_model, bench_cert)


def test_trigger_never_fires(bench_cfg, runs, monkeypatch):
    """A trigger that never fires fails criterion 4 (trigger algebra: d = 0
    forces an event, alpha = 0 solves every step)."""
    check = test_acceptance.test_criterion_4_trigger_algebra
    check(runs)
    monkeypatch.setattr(harness, "evaluate_trigger", lambda state, cert: False)
    with pytest.raises(AssertionError, match="criterion 4"):
        check(seed_runs(bench_cfg))


def test_threshold_scaled(bench_cfg, runs, monkeypatch):
    """A threshold scaled by 1e6 fails criterion 2 (event rate)."""
    check = test_acceptance.test_criterion_2_event_rate
    check(runs)
    real = EtmState.threshold
    monkeypatch.setattr(EtmState, "threshold",
                        lambda state, eta: 1e6 * real(state, eta))
    with pytest.raises(AssertionError, match="criterion 2"):
        check(seed_runs(bench_cfg))


def test_d_without_discount(bench_model, bench_cert, monkeypatch):
    """d summed without its discount eta^(Mt-1-j) fails the explicit sum of
    test_trigger."""
    check = test_trigger.TestComputeD().test_matches_explicit_sum
    check(bench_model, bench_cert, 40)
    real = test_trigger.compute_d

    def undiscounted(solution, window, cert):
        flat = types.SimpleNamespace(P2=cert.P2, Q=cert.Q, R=cert.R, eta=1.0)
        return real(solution, window, flat)

    monkeypatch.setattr(test_trigger, "compute_d", undiscounted)
    with pytest.raises(AssertionError):
        check(bench_model, bench_cert, 40)


def test_clock_left_unmoved(bench_cfg, monkeypatch):
    """An extend that leaves t unchanged fails the recorded trigger decision
    of test_harness (threshold alpha * eta^(t - eps) * d)."""
    check = test_harness.TestClosedLoop().test_trigger_decision_recorded
    cfg = dataclasses.replace(bench_cfg, T=40)
    check(cfg, run_closed_loop(cfg))
    real = trigger.extend

    def frozen_clock(state, *args):
        return dataclasses.replace(real(state, *args), t=state.t)

    monkeypatch.setattr(harness, "extend", frozen_clock)
    with pytest.raises(AssertionError):
        check(cfg, run_closed_loop(cfg))
