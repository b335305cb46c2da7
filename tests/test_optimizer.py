"""Armijo test, backtracking, Adam, and the minimize loop."""

import math

import numpy as np
import pytest

from dfoline import (
    AdamConfig,
    AdamState,
    EstimatorConfig,
    FixedStepConfig,
    LineSearchConfig,
    LineSearchState,
    NoiseModel,
    Oracle,
    ProblemConstants,
    RngStream,
    StallError,
    adam_step,
    armijo_holds,
    backtracking_step,
    eta,
    get_function,
    LineSearchConstants,
    minimize,
    quadratic,
)


def half_square_oracle():
    return Oracle(lambda x: 0.5 * float(x @ x), 1, name="half_square")


class TestArmijoHolds:
    """f = x^2/2 at x=1 with g = 1 (the true gradient), c1 = 1/2."""

    def test_accepts_exact_minimizer_step(self):
        # alpha=1 lands on f=0, threshold is 0.5 - 0.5 = 0
        assert armijo_holds(0.5, 0.0, 1.0, 1.0, 0.5, 0.0)

    def test_rejects_overshoot(self):
        # alpha=2 lands back at f=0.5, threshold -0.5
        assert not armijo_holds(0.5, 0.5, 2.0, 1.0, 0.5, 0.0)

    def test_noise_relaxation_is_two_eps(self):
        assert not armijo_holds(0.5, 0.5, 2.0, 1.0, 0.5, 0.3)
        assert armijo_holds(0.5, 0.5, 2.0, 1.0, 0.5, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            armijo_holds(1.0, 0.5, 0.0, 1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            armijo_holds(1.0, 0.5, 1.0, -1.0, 0.5, 0.0)


class TestBacktracking:
    def test_hand_trace_two_backtracks(self):
        """From alpha=4 with tau=1/2 on x^2/2 at x=1: 4 and 2 fail, 1 lands
        on the minimizer and passes with c1=1/2."""
        oracle = half_square_oracle()
        state = LineSearchState(alpha=4.0)
        x_next, alpha = backtracking_step(
            oracle, [1.0], [1.0], state, c1=0.5, tau=0.5, eps_f=0.0, f_curr=0.5
        )
        assert alpha == 1.0
        assert x_next == pytest.approx([0.0])
        assert state.backtracks_this_iter == 2
        assert state.alpha == 1.0
        assert oracle.eval_count == 3

    def test_first_trial_accepted(self):
        oracle = half_square_oracle()
        state = LineSearchState(alpha=0.5)
        _, alpha = backtracking_step(
            oracle, [1.0], [1.0], state, c1=0.5, tau=0.5, eps_f=0.0
        )
        assert alpha == 0.5
        assert state.backtracks_this_iter == 0
        assert oracle.eval_count == 2  # f_curr measured here, then one trial

    def test_larger_gradient_accepts_smaller_step(self):
        accepted = {}
        for g in (1.0, 2.0):
            oracle = half_square_oracle()
            state = LineSearchState(alpha=4.0)
            _, accepted[g] = backtracking_step(
                oracle, [1.0], [g], state, c1=0.1, tau=0.5, eps_f=0.0, f_curr=0.5
            )
        assert accepted[1.0] == 1.0
        assert accepted[2.0] == 0.5

    def test_stall_at_alpha_min(self):
        """At the minimizer every direction is uphill, so the search walks
        alpha down to the floor and raises with full diagnostics."""
        oracle = half_square_oracle()
        state = LineSearchState(alpha=1.0, alpha_min=1.0e-12)
        with pytest.raises(StallError) as info:
            backtracking_step(
                oracle, [0.0], [1.0], state, c1=0.5, tau=0.3, eps_f=0.0, f_curr=0.0
            )
        err = info.value
        assert err.reason == "alpha_min"
        assert err.trials == 23  # 0.3^22 >= 1e-12 > 0.3^23
        assert err.last_alpha == pytest.approx(0.3**22)
        assert err.g_norm == 1.0
        assert err.f_curr == 0.0
        np.testing.assert_array_equal(err.x, [0.0])

    def test_stall_on_trial_allowance(self):
        oracle = half_square_oracle()
        state = LineSearchState(alpha=1.0)
        with pytest.raises(StallError) as info:
            backtracking_step(
                oracle, [0.0], [1.0], state, c1=0.5, tau=0.5, eps_f=0.0,
                f_curr=0.0, max_trials=3,
            )
        assert info.value.reason == "budget"
        assert info.value.trials == 3
        assert oracle.eval_count == 3

    def test_validation(self):
        oracle = half_square_oracle()
        state = LineSearchState()
        with pytest.raises(ValueError, match="tau"):
            backtracking_step(oracle, [1.0], [1.0], state, 0.5, 1.5, 0.0)
        with pytest.raises(ValueError, match="nonzero"):
            backtracking_step(oracle, [1.0], [0.0], state, 0.5, 0.5, 0.0)


class TestAdam:
    def test_first_step_is_sign_step(self):
        """Bias correction makes m_hat = g and v_hat = g^2 at t=1, so the
        first step is -alpha g / (|g| + eps_hat)."""
        state = AdamState.fresh(1)
        state, step = adam_step(state, [1.0], 0.01)
        assert step[0] == pytest.approx(-0.01 / (1.0 + 1.0e-8), rel=1e-15)
        assert state.t == 1

    def test_zero_gradient_zero_step(self):
        state = AdamState.fresh(3)
        _, step = adam_step(state, np.zeros(3), 0.5)
        np.testing.assert_array_equal(step, np.zeros(3))

    def test_constant_gradient_step_magnitude(self):
        state = AdamState.fresh(1)
        for _ in range(500):
            state, step = adam_step(state, [2.0], 0.1)
        assert abs(step[0]) == pytest.approx(0.1, rel=1e-7)
        assert state.t == 500

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            adam_step(AdamState.fresh(2), np.ones(3), 0.1)


class TestConfigs:
    def test_estimator_kind_checked(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            EstimatorConfig(kind="newton")

    def test_sigma_positive(self):
        with pytest.raises(ValueError, match="sigma"):
            EstimatorConfig(kind="gsg", sigma=0.0)

    def test_interpolation_needs_n_directions(self):
        cfg = EstimatorConfig(kind="liod", num_directions=3)
        with pytest.raises(ValueError, match="exactly n"):
            cfg.resolved_directions(5)
        assert cfg.resolved_directions(3) == 3

    def test_evals_per_call(self):
        assert EstimatorConfig(kind="gsg", num_directions=4).evals_per_call(9) == 5
        assert EstimatorConfig(kind="cgsg", num_directions=4).evals_per_call(9) == 8
        assert EstimatorConfig(kind="liod").evals_per_call(6) == 7

    def test_adaptive_restricted_to_exact_window_kinds(self):
        consts = ProblemConstants(L=1.0)
        with pytest.raises(ValueError, match="adaptive"):
            EstimatorConfig(kind="gsg", adaptive=True, constants=consts)
        with pytest.raises(ValueError, match="ProblemConstants"):
            EstimatorConfig(kind="liod", adaptive=True)
        EstimatorConfig(kind="liod", adaptive=True, constants=consts)

    def test_line_search_state_ordering_checked(self):
        with pytest.raises(ValueError):
            LineSearchState(alpha=1.0e-13, alpha_min=1.0e-12)

    def test_fixed_step_positive(self):
        with pytest.raises(ValueError):
            FixedStepConfig(alpha=0.0)


class TestMinimize:
    def test_reaches_tiny_gap_on_strongly_convex(self):
        """Exact interpolation plus a well-scaled quadratic: the unit step is
        a Newton step, so the gap collapses within a few iterations and the
        run then stops at the sigma discretization floor."""
        fn = quadratic(5, 1.0, 1.0)
        trace = minimize(
            fn.oracle(),
            np.ones(5) / math.sqrt(5.0),
            EstimatorConfig(kind="liod", sigma=1.0e-6),
            LineSearchConfig(),
            budget=7000,
            rng=0,
        )
        assert trace.status == "noise_floor"
        assert trace.records[-1].phi <= 1.0e-11
        assert trace.evals_total <= 200

    def test_sigma_lost_to_rounding_is_failed_not_converged(self):
        """A unit fixed step on rosenbrock_n4 diverges to x_3 ~ 2e10, where the
        probe x + sigma e_3 rounds back to x and f ~ 2e43 swallows the other
        differences, so the estimate is exactly 0."""
        trace = minimize(
            get_function("rosenbrock_n4").oracle(), np.ones(4),
            EstimatorConfig(kind="fd", sigma=1.0e-6), FixedStepConfig(alpha=1.0),
            budget=2000,
        )
        assert trace.status == "failed"
        assert trace.records[-1].status == "failed"
        assert trace.records[-1].g_norm == 0.0
        assert "sigma=1.000e-06" in trace.detail and "||x||=" in trace.detail

    def test_unresolvable_vanishing_estimate_is_failed(self):
        """A huge fixed step makes quad_n10 diverge until f ~ 8e32 swallows
        every difference f(x + sigma u_i) - f(x).  Orthonormal rows mix all
        coordinates, so no probe point equals x, yet the run must not read
        converged."""
        trace = minimize(
            get_function("quad_n10").oracle(), np.ones(10),
            EstimatorConfig(kind="liod", sigma=1.0e-2), FixedStepConfig(alpha=1000.0),
            budget=5000,
        )
        assert trace.status == "failed"
        assert trace.records[-1].g_norm == 0.0
        assert trace.records[-1].phi > 1.0e30
        assert "sigma=1.000e-02" in trace.detail

    def test_budget_must_cover_one_iteration(self):
        fn = quadratic(5, 1.0, 1.0)
        with pytest.raises(ValueError, match="budget"):
            minimize(fn.oracle(), np.ones(5), EstimatorConfig(kind="liod"),
                     LineSearchConfig(), budget=6)

    def test_unknown_stepper_rejected(self):
        fn = quadratic(2, 1.0, 1.0)
        with pytest.raises(TypeError):
            minimize(fn.oracle(), np.ones(2), EstimatorConfig(kind="gsg"),
                     object(), budget=100)

    def test_same_seed_bit_identical(self):
        def run():
            fn = quadratic(3, 1.0, 2.0)
            oracle = fn.oracle(NoiseModel("uniform", 1.0e-3, seed=11))
            return minimize(
                oracle, [1.0, -1.0, 0.5],
                EstimatorConfig(kind="gsg", sigma=0.05, num_directions=4),
                LineSearchConfig(eps_f=1.0e-3),
                budget=300, rng=7,
            )
        a, b = run(), run()
        assert a.status == b.status
        for col in ("f", "phi", "alpha", "evals", "g_norm"):
            np.testing.assert_array_equal(a.column(col), b.column(col))
        np.testing.assert_array_equal(a.x_final, b.x_final)

    def test_int_seed_matches_stream(self):
        fn = quadratic(2, 1.0, 1.0)
        a = minimize(fn.oracle(), [1.0, 1.0], EstimatorConfig(kind="gsg"),
                     LineSearchConfig(), budget=80, rng=5)
        b = minimize(fn.oracle(), [1.0, 1.0], EstimatorConfig(kind="gsg"),
                     LineSearchConfig(), budget=80, rng=RngStream(5))
        np.testing.assert_array_equal(a.column("f"), b.column("f"))

    def test_trace_shape_and_accounting(self):
        fn = quadratic(4, 1.0, 3.0)
        trace = minimize(fn.oracle(), np.ones(4), EstimatorConfig(kind="liod", sigma=1e-5),
                         LineSearchConfig(), budget=200, rng=1)
        assert len(trace.records) == trace.iterations + 1
        assert [r.k for r in trace.records] == list(range(len(trace.records)))
        evals = trace.column("evals")
        assert np.all(np.diff(evals) >= 0)
        assert evals[-1] <= 200
        assert trace.records[-1].status == trace.status

    def test_per_iteration_decrease_certificate(self):
        """With exact interpolation accuracy theta and zero noise, every
        accepted step cuts phi by at least eta ||grad phi||^2."""
        fn = quadratic(5, 1.0, 1.0)
        cfg = EstimatorConfig(kind="liod", adaptive=True, theta=0.25,
                              constants=fn.constants)
        trace = minimize(fn.oracle(), np.ones(5) / math.sqrt(5.0), cfg,
                         LineSearchConfig(), budget=2000, rng=3)
        rate = eta(LineSearchConstants(c1=0.2, tau=0.3, theta=0.25), 1.0)
        phi = trace.column("phi")
        gnt = trace.column("grad_norm_true")
        for i in range(len(phi) - 1):
            assert phi[i + 1] <= phi[i] - rate * gnt[i] ** 2 + 1.0e-10

    def test_adaptive_hits_noise_floor(self):
        """Once theta ||grad phi|| drops below the best achievable
        interpolation error the accuracy window is empty and the run stops
        with a noise_floor status."""
        fn = quadratic(10, 1.0, 10.0)
        consts = ProblemConstants(L=10.0, mu=1.0, eps_f=1.0e-4)
        oracle = fn.oracle(NoiseModel("uniform", 1.0e-4, seed=5))
        cfg = EstimatorConfig(kind="liod", adaptive=True, theta=0.25, constants=consts)
        trace = minimize(oracle, np.ones(10), cfg,
                         LineSearchConfig(eps_f=1.0e-4), budget=20000, rng=2)
        assert trace.status == "noise_floor"
        assert trace.records[-1].grad_norm_true < 0.8 + 1e-9

    def test_stall_at_minimum_is_noise_floor(self):
        """Started exactly at the minimizer, every trial step increases f,
        so backtracking exhausts alpha and the status reports the floor."""
        fn = quadratic(2, 1.0, 1.0)
        trace = minimize(fn.oracle(), np.zeros(2),
                         EstimatorConfig(kind="gsg", sigma=0.1),
                         LineSearchConfig(), budget=500, rng=4)
        assert trace.status == "noise_floor"
        assert "Armijo" in trace.detail

    def test_constant_function_converges_immediately(self):
        oracle = Oracle(lambda x: 3.0, 2, name="flat")
        trace = minimize(oracle, [1.0, 2.0],
                         EstimatorConfig(kind="gsg", num_directions=2),
                         LineSearchConfig(), budget=50, rng=0)
        assert trace.status == "converged"
        assert trace.iterations == 0
        np.testing.assert_array_equal(trace.x_final, [1.0, 2.0])
        assert trace.evals_total == 3  # two forward points plus the center

    def test_adaptive_requires_instrumentation(self):
        oracle = Oracle(lambda x: float(x @ x), 2)
        cfg = EstimatorConfig(kind="liod", adaptive=True,
                              constants=ProblemConstants(L=2.0))
        with pytest.raises(ValueError, match="grad_phi"):
            minimize(oracle, [1.0, 1.0], cfg, LineSearchConfig(), budget=100)

    def test_fixed_step_alpha_column(self):
        fn = quadratic(3, 1.0, 1.0)
        trace = minimize(fn.oracle(), np.ones(3),
                         EstimatorConfig(kind="liod", sigma=1e-5),
                         FixedStepConfig(alpha=0.05), budget=120, rng=0)
        alphas = trace.column("alpha")
        assert set(alphas[:-1]) == {0.05}
        assert math.isnan(alphas[-1])
        assert trace.records[-1].phi < trace.records[0].phi

    def test_adam_descends(self):
        fn = quadratic(2, 1.0, 1.0)
        trace = minimize(fn.oracle(), [1.0, -1.0],
                         EstimatorConfig(kind="liod", sigma=1e-5),
                         AdamConfig(alpha=0.1), budget=300, rng=0)
        assert trace.status == "budget_exhausted"
        assert trace.records[-1].phi < 0.25 * trace.records[0].phi

    def test_cgsg_center_accounting(self):
        """cgsg never evaluates the center itself, so the loop pays one extra
        evaluation per iteration to measure f(x) for the Armijo test."""
        fn = quadratic(3, 1.0, 1.0)
        oracle = fn.oracle()
        trace = minimize(oracle, np.ones(3),
                         EstimatorConfig(kind="cgsg", num_directions=3),
                         LineSearchConfig(), budget=100, rng=1)
        assert trace.status in ("budget_exhausted", "noise_floor")
        assert trace.evals_total <= 100
        # first iteration: 6 symmetric evals + 1 center + >= 1 trial
        assert trace.records[0].evals >= 8
