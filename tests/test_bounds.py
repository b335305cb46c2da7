"""Closed-form constants, certificates, and Monte Carlo moment checks."""

import math

import numpy as np
import pytest

from dfoline import (
    DirectionSet,
    InfeasibleConstantsError,
    LineSearchConstants,
    NoFeasibleSigmaError,
    Oracle,
    ProblemConstants,
    RngStream,
    alpha_bar,
    convex_gap_bound,
    eta,
    gaussian_smoothing_constants,
    gsg,
    gsg_covariance_top,
    gsg_misses,
    gsg_sample_size,
    gsg_variance_bound,
    get_function,
    interpolation_error,
    interpolation_error_bound,
    moment_identity_check,
    nonconvex_avg_bound,
    orthonormal_directions,
    sigma_range,
    strongly_convex_certificate,
)
from dfoline import bounds
from dfoline.bounds import MOMENT_IDENTITIES


class TestProblemConstants:
    def test_negative_constant_rejected(self):
        with pytest.raises(ValueError, match="L must"):
            ProblemConstants(L=-1.0)

    def test_mu_cannot_exceed_L(self):
        with pytest.raises(ValueError, match="exceed"):
            ProblemConstants(L=1.0, mu=2.0)

    def test_require_names_missing_constant(self):
        c = ProblemConstants(L=1.0)
        c.require("L")
        with pytest.raises(ValueError, match="ProblemConstants.D"):
            c.require("L", "D")


class TestLineSearchConstants:
    @pytest.mark.parametrize("kw", [
        {"c1": 0.0}, {"c1": 1.0}, {"tau": 0.0}, {"tau": 1.0},
        {"theta": -0.1}, {"theta": 0.5}, {"gamma": 0.0}, {"gamma": 1.0},
    ])
    def test_range_checks(self, kw):
        base = {"c1": 0.2, "tau": 0.3, "theta": 0.25, "gamma": 0.5}
        base.update(kw)
        with pytest.raises((ValueError, InfeasibleConstantsError)):
            LineSearchConstants(**base)

    def test_feasibility_boundary(self):
        # limit at theta=0.25 is (1-0.5)/0.75 = 2/3
        LineSearchConstants(c1=0.66, tau=0.5, theta=0.25)
        with pytest.raises(InfeasibleConstantsError, match="c1"):
            LineSearchConstants(c1=0.7, tau=0.5, theta=0.25)


class TestAlphaBarEta:
    def test_noiseless_halving(self):
        c = LineSearchConstants(c1=0.5, tau=0.5, theta=0.0)
        assert alpha_bar(c, 1.0) == 1.0

    def test_frozen_sixth(self):
        c = LineSearchConstants(c1=0.5, tau=0.5, theta=0.25)
        assert math.isclose(alpha_bar(c, 2.0), 1.0 / 6.0, rel_tol=1e-15)

    def test_eta_simple(self):
        c = LineSearchConstants(c1=0.5, tau=0.5, theta=0.0)
        assert eta(c, 1.0) == 0.25

    def test_eta_tau_limit(self):
        c = LineSearchConstants(c1=0.5, tau=1.0 - 1e-12, theta=0.0)
        assert math.isclose(eta(c, 1.0), 0.5, rel_tol=1e-9)

    def test_eta_frozen(self):
        c = LineSearchConstants(c1=0.5, tau=0.3, theta=0.25)
        assert math.isclose(eta(c, 2.0), 0.0140625, rel_tol=1e-15)

    def test_L_validated(self):
        c = LineSearchConstants(c1=0.5, tau=0.5)
        with pytest.raises(ValueError):
            alpha_bar(c, 0.0)

    def test_monotone_in_theta_and_c1(self):
        thetas = [0.0, 0.1, 0.2, 0.3]
        vals = [alpha_bar(LineSearchConstants(c1=0.2, tau=0.5, theta=t), 1.0) for t in thetas]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        c1s = [0.1, 0.2, 0.3, 0.4]
        vals = [alpha_bar(LineSearchConstants(c1=c, tau=0.5, theta=0.0), 1.0) for c in c1s]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestConvexBound:
    def test_rate_branch(self):
        consts = ProblemConstants(L=1.0, D=1.0, eps_f=0.0)
        c = LineSearchConstants(c1=0.5, tau=0.5, theta=0.0, gamma=0.5)  # eta = 0.25
        assert convex_gap_bound(consts, c, 8) == 1.0

    def test_noise_free_limit(self):
        consts = ProblemConstants(L=1.0, D=1.0, eps_f=0.0)
        c = LineSearchConstants(c1=0.5, tau=0.5, theta=0.0)
        assert convex_gap_bound(consts, c, 10**9) < 1e-8

    def test_noise_floor_branch_frozen(self):
        consts = ProblemConstants(L=1.0, D=1.0, eps_f=0.01)
        c = LineSearchConstants(c1=0.5, tau=0.5, theta=0.0, gamma=0.5)
        got = convex_gap_bound(consts, c, 10**6)
        want = 2.0 * 0.1 / math.sqrt(0.125) + 0.04
        assert math.isclose(got, want, rel_tol=1e-12)
        assert round(got, 5) == 0.60569

    def test_needs_D(self):
        c = LineSearchConstants(c1=0.5, tau=0.5)
        with pytest.raises(ValueError, match="\\.D"):
            convex_gap_bound(ProblemConstants(L=1.0), c, 5)


class TestStronglyConvexCertificate:
    def test_rho_half_noiseless(self):
        consts = ProblemConstants(L=1.0, mu=1.0, eps_f=0.0)
        c = LineSearchConstants(c1=0.5, tau=0.5, theta=0.0)
        rho, bound = strongly_convex_certificate(consts, c, 3, 8.0)
        assert rho == 0.5 and bound == 1.0

    def test_long_horizon_vanishes(self):
        consts = ProblemConstants(L=1.0, mu=1.0, eps_f=0.0)
        c = LineSearchConstants(c1=0.5, tau=0.5, theta=0.0)
        _, bound = strongly_convex_certificate(consts, c, 10_000, 8.0)
        assert bound < 1e-100

    def test_noise_floor_frozen(self):
        consts = ProblemConstants(L=1.0, mu=1.0, eps_f=0.1)
        c = LineSearchConstants(c1=0.5, tau=0.5, theta=0.0)
        rho, bound = strongly_convex_certificate(consts, c, 2, 1.0)
        assert rho == 0.5
        # 0.25 (1 - 0.8) + 0.8
        assert math.isclose(bound, 0.85, rel_tol=1e-15)

    def test_input_validation(self):
        consts = ProblemConstants(L=1.0, mu=1.0)
        c = LineSearchConstants(c1=0.5, tau=0.5)
        with pytest.raises(ValueError):
            strongly_convex_certificate(consts, c, -1, 1.0)
        with pytest.raises(ValueError):
            strongly_convex_certificate(consts, c, 1, -1.0)
        with pytest.raises(ValueError, match="\\.mu"):
            strongly_convex_certificate(ProblemConstants(L=1.0), c, 1, 1.0)

    def test_rho_grows_with_theta(self):
        consts = ProblemConstants(L=1.0, mu=0.5)
        rhos = [
            strongly_convex_certificate(
                consts, LineSearchConstants(c1=0.2, tau=0.5, theta=t), 1, 1.0
            )[0]
            for t in (0.0, 0.1, 0.2)
        ]
        assert rhos[0] < rhos[1] < rhos[2]


class TestNonconvexBound:
    def test_simple(self):
        consts = ProblemConstants(L=1.0, phi_hat=0.0, eps_f=0.0)
        c = LineSearchConstants(c1=0.5, tau=0.5, theta=0.0)  # eta = 0.25
        assert nonconvex_avg_bound(consts, c, 4, 1.0) == 1.0

    def test_long_horizon_leaves_noise_term(self):
        consts = ProblemConstants(L=1.0, phi_hat=0.0, eps_f=0.05)
        c = LineSearchConstants(c1=0.5, tau=0.5, theta=0.0)
        got = nonconvex_avg_bound(consts, c, 10**9, 1.0)
        assert math.isclose(got, 0.8, rel_tol=1e-6)

    def test_needs_phi_hat(self):
        c = LineSearchConstants(c1=0.5, tau=0.5)
        with pytest.raises(ValueError, match="phi_hat"):
            nonconvex_avg_bound(ProblemConstants(L=1.0), c, 1, 1.0)


class TestInterpolationErrorBound:
    def test_noise_free_frozen(self):
        consts = ProblemConstants(L=2.0, eps_f=0.0)
        assert math.isclose(
            interpolation_error_bound(0.1, 4, consts), 0.2, rel_tol=1e-15
        )

    def test_noise_term_blows_up_as_sigma_shrinks(self):
        consts = ProblemConstants(L=1.0, eps_f=0.01)
        vals = [interpolation_error_bound(s, 1, consts) for s in (1e-2, 1e-4, 1e-6)]
        assert vals[0] < vals[1] < vals[2] and vals[2] > 1e3

    def test_minimizing_sigma_frozen(self):
        """At sigma = 2 sqrt(eps_f / L) the two terms are equal: 0.1 + 0.1."""
        consts = ProblemConstants(L=1.0, eps_f=0.01)
        assert math.isclose(interpolation_error_bound(0.2, 1, consts), 0.2, rel_tol=1e-15)

    def test_validation(self):
        consts = ProblemConstants(L=1.0)
        with pytest.raises(ValueError):
            interpolation_error_bound(0.0, 1, consts)
        with pytest.raises(ValueError, match="Q"):
            interpolation_error_bound(0.1, 1, consts, Qinv_norm=0.5)


def liod_error_gap(fname: str, sigma: float, seed: int) -> float:
    """The relative gap between the noise-free LIOD error of quadratic
    ``fname`` at a drawn point and its closed form on the drawn Q:
    phi = 1/2 x^T A x gives g - A x = (sigma/2) sum_i (u_i^T A u_i) u_i."""
    fn = get_function(fname)
    A = np.array([fn.gradient(e) for e in np.eye(fn.n)]).T  # exact: grad phi is A x
    dirs = orthonormal_directions(fn.n, fn.n, RngStream(seed, 1))
    x = RngStream(seed, 2).generator().uniform(-2.0, 2.0, fn.n)
    err = interpolation_error(fn.oracle(), x, sigma, dirs)
    Q = dirs.Q
    exact = float(np.linalg.norm(0.5 * sigma * np.einsum("ij,jk,ik->i", Q, A, Q) @ Q))
    return abs(err - exact) / exact


class TestInterpolationError:
    CASES = [(f, s, seed) for f in ("quad_n5", "quad_n10", "quad_n20")
             for s in (1.0e-2, 1.0e-1) for seed in (0, 1, 7, 2**40 + 3)]
    RTOL = 1.0e-8

    @pytest.mark.parametrize("fname, sigma, seed", CASES)
    def test_noise_free_quadratic_error_is_exact(self, fname, sigma, seed):
        assert liod_error_gap(fname, sigma, seed) <= self.RTOL

    def test_transposed_q_leaves_the_closed_form(self, monkeypatch):
        """A planted transposed Q inside the estimate fails the exact test
        in every case."""
        real = bounds.interpolation_gradient
        monkeypatch.setattr(bounds, "interpolation_gradient", lambda oracle, x, sigma, dirs: real(
            oracle, x, sigma, DirectionSet(dirs.Q.T, dirs.kind)))
        assert min(liod_error_gap(*case) for case in self.CASES) > self.RTOL


class TestSigmaRange:
    def test_boundary_discriminant_zero(self):
        consts = ProblemConstants(L=1.0, eps_f=0.25)
        lo, hi = sigma_range(0.5, 4.0, 4, consts)
        assert math.isclose(lo, 1.0, rel_tol=1e-12) and math.isclose(hi, 1.0, rel_tol=1e-12)

    def test_noise_free_range(self):
        consts = ProblemConstants(L=1.0, eps_f=0.0)
        lo, hi = sigma_range(0.5, 2.0, 1, consts)
        assert lo == 0.0 and math.isclose(hi, 2.0, rel_tol=1e-15)

    def test_infeasible(self):
        consts = ProblemConstants(L=1.0, eps_f=0.26)
        with pytest.raises(NoFeasibleSigmaError, match="feasible"):
            sigma_range(0.5, 2.0, 1, consts)

    @pytest.mark.parametrize("theta,g,n,L,eps_f", [
        (0.3, 5.0, 3, 2.0, 1e-3),
        (0.45, 1.0, 1, 1.0, 1e-4),
        (0.25, 10.0, 8, 4.0, 1e-2),
    ])
    def test_roots_hit_the_accuracy_target(self, theta, g, n, L, eps_f):
        """Substituting either endpoint back into the error bound recovers
        theta * grad_norm (quadratic-root consistency)."""
        consts = ProblemConstants(L=L, eps_f=eps_f)
        for s in sigma_range(theta, g, n, consts):
            got = interpolation_error_bound(s, n, consts)
            assert got <= theta * g + 1e-9
            assert math.isclose(got, theta * g, rel_tol=1e-9)

    def test_validation(self):
        consts = ProblemConstants(L=1.0)
        with pytest.raises(ValueError):
            sigma_range(0.5, -1.0, 1, consts)
        with pytest.raises(ValueError):
            sigma_range(0.5, 1.0, 0, consts)


class TestVarianceBound:
    def test_frozen_value(self):
        # (8 + 15 + 24 + 16) / 4
        assert gsg_variance_bound(1.0, 1.0, 1, 1) == 15.75

    def test_doubling_N_halves(self):
        k1 = gsg_variance_bound(2.0, 3.0, 5, 10)
        k2 = gsg_variance_bound(2.0, 3.0, 5, 20)
        assert k1 == 2.0 * k2

    def test_vanishes_with_N(self):
        assert gsg_variance_bound(1.0, 1.0, 4, 10**9) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            gsg_variance_bound(1.0, 1.0, 1, 0)
        with pytest.raises(ValueError):
            gsg_variance_bound(-1.0, 1.0, 1, 1)


class TestSampleSize:
    def test_frozen_400(self):
        assert gsg_sample_size(1.0, 1.0, 2, 0.1, 1.0) == 400

    def test_floor_at_one(self):
        assert gsg_sample_size(1.0, 1.0, 2, 0.5, 1e9) == 1

    def test_gradient_dominated_regime(self):
        """With L_f = 0 and r = theta * grad_norm the formula collapses to
        ceil(2 n / (delta theta^2))."""
        n, delta, theta = 50, 0.1, 0.5
        assert gsg_sample_size(1.0, 0.0, n, delta, theta) == math.ceil(
            2 * n / (delta * theta**2)
        )

    def test_ceiling_of_closed_form(self):
        """N is the ceiling of the two-term expression, checked term by term."""
        g, L_f, n, delta, r = 2.0, 1.5, 4, 0.05, 0.7
        value = 2 * n * g**2 / (delta * r**2) + (
            L_f**2 * (n * (n + 2) * (n + 4) + 8 * n * (n + 2) + 16 * n)
        ) / (4 * delta * r**2)
        N = gsg_sample_size(g, L_f, n, delta, r)
        assert N == math.ceil(value)
        assert N - 1 < value <= N

    def test_monotone_in_accuracy(self):
        sizes = [gsg_sample_size(1.0, 1.0, 3, 0.1, r) for r in (1.0, 0.5, 0.25)]
        assert sizes[0] < sizes[1] < sizes[2]

    def test_overflow_is_a_value_error(self):
        with pytest.raises(ValueError, match="overflows"):
            gsg_sample_size(1.0, 1.0, 2, 1e-300, 1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            gsg_sample_size(1.0, 1.0, 1, 1.5, 1.0)
        with pytest.raises(ValueError):
            gsg_sample_size(1.0, 1.0, 1, 0.1, 0.0)


class TestSmoothingConstants:
    def test_frozen_pairs(self):
        assert gaussian_smoothing_constants(1.0, 1.0, 4) == (2.0, 2.0)
        assert gaussian_smoothing_constants(0.5, 2.0, 1) == (1.0, 4.0)

    def test_product_independent_of_sigma(self):
        for sigma in (0.01, 0.1, 1.0, 10.0):
            e, L = gaussian_smoothing_constants(sigma, 3.0, 7)
            assert math.isclose(e * L, 7 * 9.0, rel_tol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_smoothing_constants(0.0, 1.0, 1)


class TestMomentIdentities:
    def test_all_identities_all_dimensions(self):
        """Every identity passes the 3 standard-error check for n in {1,2,3,5}."""
        for n in (1, 2, 3, 5):
            a = RngStream(77, 3, (n,)).generator().standard_normal(n)
            for identity_id in sorted(MOMENT_IDENTITIES):
                res = moment_identity_check(
                    identity_id, n, a=a, samples=50_000,
                    rng=RngStream(88, 1, (n, identity_id)),
                )
                assert res.passed, (
                    f"identity {identity_id} at n={n}: "
                    f"{res.max_deviation} > {res.tolerance}"
                )
                assert res.samples == 50_000

    def test_identity_one_tolerance_unit(self):
        """For E[u u^T] the max-entry second moment is E[u_i^4] = 3, so the
        tolerance unit is sqrt(3 / samples)."""
        res = moment_identity_check(1, 2, samples=10**6, rng=RngStream(5))
        assert math.isclose(res.se_max, math.sqrt(3.0 / 10**6), rel_tol=0.02)
        assert res.tolerance == 3.0 * res.se_max
        assert res.passed and res.max_deviation <= res.tolerance

    def test_exact_forms(self):
        n = 3
        a = np.array([1.0, -2.0, 0.5])
        r2 = moment_identity_check(2, n, samples=10_000, rng=0)
        np.testing.assert_array_equal(r2.exact, 5.0 * np.eye(n))
        r3 = moment_identity_check(3, n, a=a, samples=10_000, rng=0)
        np.testing.assert_allclose(r3.exact, (a @ a) * np.eye(n) + 2.0 * np.outer(a, a))
        r5 = moment_identity_check(5, n, samples=10_000, rng=0)
        np.testing.assert_array_equal(r5.exact, 35.0 * np.eye(n))
        r7 = moment_identity_check(7, n, samples=10_000, rng=0)
        np.testing.assert_array_equal(r7.exact, 5.0 * 7.0 * 9.0 * np.eye(n))

    def test_scalar_identity_is_scalar(self):
        res = moment_identity_check(6, 2, a=np.array([1.0, 1.0]), samples=10_000, rng=3)
        assert isinstance(res.empirical, float) and res.exact == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="identity"):
            moment_identity_check(8, 2, samples=10_000)
        with pytest.raises(ValueError, match="samples"):
            moment_identity_check(1, 2, samples=100)
        with pytest.raises(ValueError, match="needs the fixed vector"):
            moment_identity_check(3, 2, samples=10_000)
        with pytest.raises(ValueError, match="shape"):
            moment_identity_check(3, 2, a=np.ones(3), samples=10_000)


def exact_moment_ratios(reps=100_000):
    """gsg_covariance_top over its exact value 2 ||a||^2 / N, at criterion 5's
    four settings: for phi = a^T x, Cov g = (||a||^2 I + a a^T) / N."""
    ratios = []
    for n in (2, 4):
        a = np.full(n, 2.0 / math.sqrt(n))
        for N in (1, 4):
            top = gsg_covariance_top(a, N, RngStream(41, 1, (n, N)), reps)
            ratios.append(top / (2.0 * float(a @ a) / N))
    return ratios


class TestGsgMeasurements:
    def test_covariance_top_matches_exact_moment(self):
        ratios = exact_moment_ratios()
        assert max(abs(r - 1.0) for r in ratios) <= 0.1, ratios

    @pytest.mark.parametrize("defect", [
        pytest.param(lambda g, N: N * g, id="dropped_1_over_N"),
        pytest.param(lambda g, N: 1.2 * g, id="scaled_20_percent"),
    ])
    def test_planted_defect_breaks_exact_moment(self, monkeypatch, defect):
        """Both defects pass criterion 5's loose kappa; the exact moment catches them."""
        correct = bounds.gsg_from_values
        monkeypatch.setattr(bounds, "gsg_from_values", lambda F, f0, sigma, Q: defect(
            correct(F, f0, sigma, Q), Q.shape[-2]))
        assert max(abs(r - 1.0) for r in exact_moment_ratios()) > 0.1

    @pytest.mark.parametrize("n, N", [(1, 1), (2, 4), (4, 1), (3, 7)])
    def test_batched_gsg_equals_per_call_bit_for_bit(self, monkeypatch, n, N):
        """The chunked estimates equal one gsg call per rep on the same
        directions, which are the stream's draws in order whatever the chunk."""
        monkeypatch.setattr(bounds, "_CHUNK_FLOATS", 3 * N * n + 1)  # 3 reps a chunk
        a, base, reps, sigma = np.linspace(-1.0, 2.0, n), RngStream(9, 1, (n, N)), 10, 0.01
        batched = np.empty((reps, n))
        for rows, g in bounds._linear_gsg(a, N, base, reps, sigma):
            batched[rows] = g
        U = base.generator().standard_normal((reps, N, n))
        oracle = Oracle(lambda X: X @ a, n, vectorized=True)
        per_call = [gsg(oracle, np.zeros(n), sigma, DirectionSet(U[r], "gaussian")).g
                    for r in range(reps)]
        np.testing.assert_array_equal(batched, per_call)

    def test_misses_count_every_trial_once(self):
        a = np.array([1.0, 0.0])
        base = RngStream(3, 1)
        assert gsg_misses(a, 5, 0.0, base, 37) == 37
        assert gsg_misses(a, 5, math.inf, base, 37) == 0
        some = gsg_misses(a, 5, 0.5, base, 37)
        assert 0 < some < 37
