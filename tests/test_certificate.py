"""Certificate validation, eigenvalues and stability constants."""

import math

import numpy as np
import pytest

from etmhe import (Box, ConfigurationError, IossCertificate, RgesConstants,
                   check_dissipation, max_generalized_eigenvalue, min_horizon,
                   rges_bound, rges_constants)

from conftest import ETA_BENCH, P_BENCH, Q_BENCH, R_BENCH
from test_mhe import scalar_linear_model


def char_poly_eigs_2x2(a):
    """Eigenvalues of a symmetric 2x2 via the characteristic polynomial."""
    tr, det = a[0, 0] + a[1, 1], a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    disc = math.sqrt(tr * tr - 4.0 * det)
    return np.array([(tr - disc) / 2.0, (tr + disc) / 2.0])


class TestGeneralizedEigenvalue:
    def test_against_characteristic_polynomial(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = rng.normal(size=(2, 2))
            a = m @ m.T + 0.1 * np.eye(2)
            assert max_generalized_eigenvalue(a, np.eye(2)) == pytest.approx(
                char_poly_eigs_2x2(a)[-1], rel=1e-10, abs=1e-10)

    def test_hand_example(self):
        # det(A - lam B) = 0 with A=[[2,1],[1,2]], B=diag(1,2):
        # 2 lam^2 - 6 lam + 3 = 0, max root (3 + sqrt(3)) / 2.
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        b = np.diag([1.0, 2.0])
        lam = max_generalized_eigenvalue(a, b)
        assert lam == pytest.approx((3.0 + math.sqrt(3.0)) / 2.0, rel=1e-12)

    def test_identity_weight_reduces_to_standard(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(3, 3))
        a = m @ m.T + 0.1 * np.eye(3)
        lam = max_generalized_eigenvalue(a, np.eye(3))
        assert lam == pytest.approx(np.linalg.eigvalsh(a)[-1], rel=1e-10)

    def test_equal_matrices_give_one(self, bench_cert):
        lam = max_generalized_eigenvalue(bench_cert.P2, bench_cert.P1)
        assert lam == pytest.approx(1.0, rel=1e-10)

    def test_rejects_unequal_shapes(self):
        with pytest.raises(ConfigurationError,
                           match="^A and B must have equal shape$"):
            max_generalized_eigenvalue(np.eye(2), np.eye(3))


class TestIossCertificate:
    def test_benchmark_certificate_valid(self, bench_cert):
        assert bench_cert.eta == ETA_BENCH
        np.testing.assert_allclose(bench_cert.P1, P_BENCH)

    def test_rejects_asymmetric(self):
        bad = P_BENCH.copy()
        bad[0, 1] += 1.0
        with pytest.raises(ConfigurationError):
            IossCertificate(P1=bad, P2=P_BENCH, Q=Q_BENCH, R=R_BENCH, eta=0.9)

    def test_rejects_nonsquare(self):
        with pytest.raises(ConfigurationError):
            IossCertificate(P1=np.zeros((2, 3)), P2=P_BENCH, Q=Q_BENCH,
                            R=R_BENCH, eta=0.9)

    def test_rejects_indefinite_p(self):
        with pytest.raises(ConfigurationError):
            IossCertificate(P1=np.diag([1.0, -1.0]), P2=np.diag([1.0, 1.0]),
                            Q=Q_BENCH, R=R_BENCH, eta=0.9)

    def test_rejects_bad_eta(self):
        for eta in (1.0, 1.5, -0.1):
            with pytest.raises(ConfigurationError):
                IossCertificate(P1=P_BENCH, P2=P_BENCH, Q=Q_BENCH, R=R_BENCH,
                                eta=eta)

    @pytest.mark.parametrize("name", ["P1", "P2", "Q", "R"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, name, bad):
        # NaN fails no comparison, so each weight is checked for finiteness
        # before its symmetry and definiteness.
        weights = {"P1": P_BENCH, "P2": P_BENCH, "Q": Q_BENCH, "R": R_BENCH}
        weights[name] = weights[name].copy()
        weights[name][-1, -1] = bad
        with pytest.raises(ConfigurationError, match=f"^{name} must be finite$"):
            IossCertificate(**weights, eta=ETA_BENCH)

    def test_accepts_psd_weights(self):
        cert = IossCertificate(P1=np.eye(2), P2=np.eye(2),
                               Q=np.diag([1.0, 0.0, 1.0]),
                               R=np.zeros((1, 1)), eta=0.5)
        assert cert.eta == 0.5

    def test_rejects_indefinite_weight(self):
        with pytest.raises(ConfigurationError,
                           match="^Q must be positive semidefinite$"):
            IossCertificate(P1=P_BENCH, P2=P_BENCH, Q=np.diag([1e3, -1.0, 1e3]),
                            R=R_BENCH, eta=ETA_BENCH)

    def test_rejects_unequal_p_shapes(self):
        with pytest.raises(ConfigurationError,
                           match="^P1 and P2 must have equal shape$"):
            IossCertificate(P1=P_BENCH, P2=np.eye(3), Q=Q_BENCH, R=R_BENCH,
                            eta=ETA_BENCH)

    def test_scalar_weight_is_one_by_one(self):
        scalar = IossCertificate(P1=P_BENCH, P2=P_BENCH, Q=Q_BENCH, R=1e3,
                                 eta=ETA_BENCH)
        assert scalar.R.shape == (1, 1)
        np.testing.assert_array_equal(scalar.R, R_BENCH)


class TestMinHorizon:
    def test_benchmark_value(self, bench_cert):
        assert min_horizon(bench_cert) == 15

    def test_hand_cases(self):
        # lam_max(P2, P1) = 2, eta = 0.5: smallest M with 8 * 0.5^M < 1 is 4
        # (8 * 0.5^3 == 1 is not admissible).
        def cert(lam, eta):
            return IossCertificate(P1=np.eye(2), P2=lam * np.eye(2),
                                   Q=np.eye(1), R=np.eye(1), eta=eta)

        for eta, expected in ((0.0, 1), (0.5, 4), (0.91, 23), (0.999, 2079)):
            assert min_horizon(cert(2.0, eta)) == expected
        # lam just beside the boundary 4*lam*0.5^M = 1 - 1e-12, where the
        # logarithms round one step too low (M = 5) and one too high (M = 29).
        assert min_horizon(cert(3.9999999999960005, 0.5)) == 5
        assert min_horizon(cert(134217727.99986579, 0.5)) == 29
        # lam_max = 0.2: 4 * 0.2 < 1 already, so M = 0.
        assert min_horizon(cert(0.2, 0.5)) == 0
        # The admissible horizon lies far above the cap.
        with pytest.raises(ConfigurationError):
            min_horizon(cert(2.0, 1.0 - 1e-9))


class TestRgesConstants:
    def test_contraction_rate_high_precision(self, bench_cert):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        rho_ref = float((4 * mp.mpf("0.91") ** 30) ** (mp.mpf(1) / 30))
        constants = rges_constants(bench_cert, alpha=5.0, M=30)
        assert constants.lam ** 2 == pytest.approx(rho_ref, rel=1e-10)
        assert constants.lam ** 2 == pytest.approx(0.953038, abs=1e-6)
        assert constants.lam ** 2 < 1.0

    def test_gain_formulas(self, bench_cert):
        c0 = rges_constants(bench_cert, alpha=0.0, M=30)
        c5 = rges_constants(bench_cert, alpha=5.0, M=30)
        # Disturbance gain scales as sqrt(2 alpha + 4); initial-error gain does not.
        assert c0.C_w / c5.C_w == pytest.approx(math.sqrt(2.0 / 7.0), rel=1e-12)
        assert c0.C_x == c5.C_x
        p_eigs = np.linalg.eigvalsh(P_BENCH)
        assert c5.C_x == pytest.approx(2.0 * math.sqrt(p_eigs[-1] / p_eigs[0]),
                                       rel=1e-9)
        assert c5.C_w == pytest.approx(math.sqrt(14.0 * 1e4 / p_eigs[0]),
                                       rel=1e-9)

    def test_rejects_short_horizon(self, bench_cert):
        with pytest.raises(ConfigurationError):
            rges_constants(bench_cert, alpha=5.0, M=14)
        # A certificate whose minimum horizon is 0 still needs one step.
        any_horizon = IossCertificate(P1=np.eye(2), P2=0.2 * np.eye(2),
                                      Q=np.eye(1), R=np.eye(1), eta=0.5)
        assert min_horizon(any_horizon) == 0
        for M in (0, -1):
            with pytest.raises(ConfigurationError, match="at least 1"):
                rges_constants(any_horizon, alpha=5.0, M=M)
        for alpha in (-1.0, np.nan, np.inf):
            with pytest.raises(ConfigurationError, match="alpha"):
                rges_constants(bench_cert, alpha=alpha, M=30)


def explicit_bound(constants, e0, w_norms, t):
    """The bound at time t as the explicit discounted sum."""
    return (constants.C_x * e0 * constants.lam ** t
            + sum(constants.C_w * w_norms[j] * constants.lam ** (t - j - 1)
                  for j in range(t)))


class TestRgesBound:
    def test_hand_value(self):
        constants = RgesConstants(C_x=2.0, C_w=1.0, lam=0.5)
        # b_0 = 2 * 1; b_1 = 2 * 1 * 0.5 + 1 * 1 * 0.5^0 = 2;
        # b_2 = 2 * 0.25 + 1 * 0.5 + 3 * 1 = 4.
        np.testing.assert_allclose(rges_bound(constants, 1.0, [1.0, 3.0]),
                                   [2.0, 2.0, 4.0], rtol=1e-15)
        np.testing.assert_allclose(rges_bound(constants, 1.0, []), [2.0])

    def test_matches_explicit_sum(self, bench_cert):
        constants = rges_constants(bench_cert, alpha=5.0, M=30)
        w = np.random.default_rng(3).uniform(0.0, 0.1, 2000)
        bound = rges_bound(constants, 2.5, w)
        assert bound.shape == (2001,)
        expected = [explicit_bound(constants, 2.5, w, t) for t in range(2001)]
        np.testing.assert_allclose(bound, expected, rtol=1e-12, atol=0.0)

    def test_monotone_in_error_and_decaying(self, bench_cert):
        constants = rges_constants(bench_cert, alpha=5.0, M=30)
        values = rges_bound(constants, 3.0, np.zeros(49))
        assert np.all(np.diff(values) < 0)
        assert values[0] == pytest.approx(constants.C_x * 3.0)
        assert np.all(rges_bound(constants, 4.0, np.zeros(49)) > values)


class TestDissipationCheck:
    REGION = Box(np.zeros(2), np.full(2, 5.0))

    def test_corrupted_certificate_flagged(self, bench_cert, bench_model):
        corrupted = IossCertificate(P1=bench_cert.P1, P2=bench_cert.P2,
                                    Q=bench_cert.Q, R=bench_cert.R, eta=0.01)
        report = check_dissipation(corrupted, bench_model, self.REGION,
                                   2000, np.random.default_rng(0))
        assert report.n_violations >= 1
        assert report.worst_margin > 0

    def test_benchmark_certificate_mostly_satisfied(self, bench_cert,
                                                    bench_model):
        report = check_dissipation(bench_cert, bench_model, self.REGION,
                                   2000, np.random.default_rng(0))
        assert report.violation_fraction < 0.01
        assert report.n_samples == 2000

    def test_requires_matching_p(self, bench_model, bench_cert):
        cert = IossCertificate(P1=np.eye(2), P2=2.0 * np.eye(2),
                               Q=bench_cert.Q, R=bench_cert.R, eta=0.9)
        with pytest.raises(ConfigurationError):
            check_dissipation(cert, bench_model, self.REGION, 100,
                              np.random.default_rng(0))

    def test_requires_bounded_region(self, bench_cert, bench_model):
        with pytest.raises(ConfigurationError):
            check_dissipation(bench_cert, bench_model,
                              Box(np.zeros(2), np.full(2, np.inf)), 100,
                              np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            check_dissipation(bench_cert, bench_model, self.REGION, 4,
                              np.random.default_rng(0))

    def test_requires_nonempty_region(self, bench_cert, bench_model):
        flat = Box(np.zeros(2), np.array([5.0, 0.0]))
        with pytest.raises(ConfigurationError, match="^empty check region$"):
            check_dissipation(bench_cert, bench_model, flat, 100,
                              np.random.default_rng(0))

    @pytest.mark.parametrize("n_samples", [100.0, 100.5])
    def test_rejects_non_integer_sample_count(self, bench_cert, bench_model,
                                              n_samples):
        # Rejected by name, not as a TypeError deep inside numpy.
        with pytest.raises(ConfigurationError,
                           match=f"^n_samples must be an integer, got {n_samples!r}$"):
            check_dissipation(bench_cert, bench_model, self.REGION, n_samples,
                              np.random.default_rng(0))

    def test_requires_finite_disturbance_set(self):
        # W is the model's own, never a stand-in box.
        model = scalar_linear_model()
        cert = IossCertificate(P1=np.eye(1), P2=np.eye(1), Q=np.eye(2),
                               R=np.eye(1), eta=0.9)
        with pytest.raises(ConfigurationError, match="w_set"):
            check_dissipation(cert, model, Box(np.zeros(1), np.ones(1)), 100,
                              np.random.default_rng(0))

    def test_deterministic_given_seed(self, bench_cert, bench_model):
        a = check_dissipation(bench_cert, bench_model, self.REGION, 400,
                              np.random.default_rng(7))
        b = check_dissipation(bench_cert, bench_model, self.REGION, 400,
                              np.random.default_rng(7))
        assert a == b


def central_jacobian(fn, x, w, step=1.0):
    """[d fn/dx, d fn/dw] at (x, w) by central differences: exact, up to
    rounding, at any step for maps of degree at most two."""
    z = np.concatenate([x, w])
    cols = []
    for e in step * np.eye(len(z)):
        hi, lo = z + e, z - e
        cols.append((fn(hi[:len(x)], hi[len(x):])
                     - fn(lo[:len(x)], lo[len(x):])) / (2.0 * step))
    return np.array(cols).T


class TestExactDissipationRegion:
    """Where the benchmark certificate holds, exactly.

    batch_reactor's f is quadratic and h linear, so f(x, w) - f(x~, w~) =
    A(m) dx + E dw exactly, with A at the midpoint m of the pair. The
    dissipation inequality then holds for every pair with midpoint m if and
    only if N(m) = [A E]' P [A E] - diag(eta P, Q) - [C D]' R [C D] <= 0.
    lam_max(N) depends on m1 alone and is convex in it, so the two x1 edges
    decide a box; its roots are x1 = 0.097421 and 4.529801.
    """

    BOX = Box(np.array([0.0975, 0.0]), np.array([4.529, 5.0]))

    @staticmethod
    def lam_max(cert, model, m):
        F = central_jacobian(model.f, m, np.zeros(model.q))
        H = central_jacobian(model.h, m, np.zeros(model.q))
        weights = np.zeros((model.n + model.q,) * 2)
        weights[:model.n, :model.n] = cert.eta * cert.P1
        weights[model.n:, model.n:] = cert.Q
        N = F.T @ cert.P1 @ F - weights - H.T @ cert.R @ H
        return np.linalg.eigvalsh(N)[-1]

    def test_box_edges_inside_roots(self, bench_cert, bench_model):
        def lam(x1):
            return self.lam_max(bench_cert, bench_model, np.array([x1, 1.0]))

        # Measured: -9.60e-7 and -9.75e-6 at the edges, +9.07e-5 and
        # +8.68e-4 at x1 = 0.09 and 4.6, just outside the roots.
        assert lam(self.BOX.lower[0]) < 0.0
        assert lam(self.BOX.upper[0]) < 0.0
        assert lam(0.09) > 0.0
        assert lam(4.6) > 0.0

    def test_sampled_check_agrees(self, bench_cert, bench_model):
        inside = check_dissipation(bench_cert, bench_model, self.BOX, 20_000,
                                   np.random.default_rng(0))
        assert inside.n_violations == 0  # worst margin -4.8e-8 measured
        wide = check_dissipation(bench_cert, bench_model,
                                 Box(np.zeros(2), np.full(2, 5.0)), 20_000,
                                 np.random.default_rng(0))
        assert wide.n_violations >= 1  # 28 measured
