"""Armijo test, backtracking, Adam, and the minimize loop."""

import dataclasses
import math

import numpy as np
import pytest

from dfoline import (
    AdamConfig,
    DFOError,
    EstimatorConfig,
    FixedStepConfig,
    LineSearchConfig,
    NoiseModel,
    Oracle,
    ProblemConstants,
    RngStream,
    StallError,
    armijo_holds,
    backtracking_step,
    core,
    corpus,
    directions,
    estimators,
    eta,
    get_function,
    LineSearchConstants,
    minimize,
    optimizer,
    quadratic,
)
from dfoline.estimators import _norm
from dfoline.harness.csvio import write_trace


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
        x_next, alpha = backtracking_step(
            oracle, [1.0], [1.0], 4.0, c1=0.5, tau=0.5, eps_f=0.0, f_curr=0.5
        )
        assert alpha == 1.0
        assert x_next == pytest.approx([0.0])
        assert oracle.eval_count - 1 == 2  # backtracks: the trials before acceptance

    def test_first_trial_accepted(self):
        oracle = half_square_oracle()
        _, alpha = backtracking_step(
            oracle, [1.0], [1.0], 0.5, c1=0.5, tau=0.5, eps_f=0.0, f_curr=0.5
        )
        assert alpha == 0.5
        assert oracle.eval_count - 1 == 0  # backtracks: the trials before acceptance

    def test_f_curr_measured_when_not_given(self):
        oracle = half_square_oracle()
        _, alpha = backtracking_step(oracle, [1.0], [1.0], 0.5, c1=0.5, tau=0.5, eps_f=0.0)
        assert alpha == 0.5
        assert oracle.eval_count == 2  # f_curr measured here, then one trial

    def test_larger_gradient_accepts_smaller_step(self):
        accepted = {}
        for g in (1.0, 2.0):
            oracle = half_square_oracle()
            _, accepted[g] = backtracking_step(
                oracle, [1.0], [g], 4.0, c1=0.1, tau=0.5, eps_f=0.0, f_curr=0.5
            )
        assert accepted[1.0] == 1.0
        assert accepted[2.0] == 0.5

    def test_stall_at_alpha_min(self):
        """At the minimizer every direction is uphill, so the search walks
        alpha down to the floor and raises with its reason and trial count."""
        oracle = half_square_oracle()
        with pytest.raises(StallError) as info:
            backtracking_step(
                oracle, [0.0], [1.0], 1.0, c1=0.5, tau=0.3, eps_f=0.0,
                alpha_min=1.0e-12, f_curr=0.0,
            )
        err = info.value
        assert err.reason == "alpha_min"
        assert err.trials == 23  # 0.3^22 >= 1e-12 > 0.3^23

    def test_stall_on_trial_allowance(self):
        oracle = half_square_oracle()
        with pytest.raises(StallError) as info:
            backtracking_step(
                oracle, [0.0], [1.0], 1.0, c1=0.5, tau=0.5, eps_f=0.0,
                f_curr=0.0, max_trials=3,
            )
        assert info.value.reason == "budget"
        assert info.value.trials == 3
        assert oracle.eval_count == 3

    def test_validation(self):
        oracle = half_square_oracle()
        with pytest.raises(ValueError, match="tau"):
            backtracking_step(oracle, [1.0], [1.0], 1.0, 0.5, 1.5, 0.0)
        with pytest.raises(ValueError, match="nonzero"):
            backtracking_step(oracle, [1.0], [0.0], 1.0, 0.5, 0.5, 0.0)


class TestAdam:
    """Each step function starts at x = 0, so x_next is the step itself."""

    def test_first_step_is_sign_step(self):
        """Bias correction makes m_hat = g and v_hat = g^2 at t=1, so the
        first step is -alpha g / (|g| + eps_hat); every start begins at t=1."""
        for step in AdamConfig(alpha=0.01).start(1), AdamConfig(alpha=0.01).start(1):
            x_next, alpha = step(None, np.zeros(1), np.array([1.0]), None, None)
            assert x_next[0] == pytest.approx(-0.01 / (1.0 + 1.0e-8), rel=1e-15)
            assert alpha == 0.01

    def test_zero_gradient_zero_step(self):
        step = AdamConfig(alpha=0.5).start(3)
        x_next, _ = step(None, np.zeros(3), np.zeros(3), None, None)
        np.testing.assert_array_equal(x_next, np.zeros(3))

    def test_constant_gradient_step_magnitude(self):
        step = AdamConfig(alpha=0.1).start(1)
        for _ in range(500):
            x_next, _ = step(None, np.zeros(1), np.array([2.0]), None, None)
        assert abs(x_next[0]) == pytest.approx(0.1, rel=1e-7)


class TestConfigs:
    def test_estimator_kind_checked(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            EstimatorConfig(kind="newton")

    def test_sigma_positive(self):
        with pytest.raises(ValueError, match="sigma"):
            EstimatorConfig(kind="gsg", sigma=0.0)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_sigma_finite(self, sigma):
        """A sigma that is not finite is refused when the config is built,
        not by a bare ValueError from inside the minimize loop."""
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            EstimatorConfig(kind="gsg", sigma=sigma)

    def test_num_directions_positive(self):
        with pytest.raises(ValueError, match="num_directions must be >= 1"):
            EstimatorConfig(kind="gsg", num_directions=0)

    @pytest.mark.parametrize("theta", [0.0, 0.5, 0.7])
    def test_theta_checked_for_every_kind(self, theta):
        with pytest.raises(ValueError, match=r"theta must lie in \(0, 0.5\)"):
            EstimatorConfig(kind="gsg", theta=theta)

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

    def test_line_search_ordering_checked(self):
        with pytest.raises(ValueError, match="alpha_min <= alpha0"):
            LineSearchConfig(alpha0=1.0e-13, alpha_min=1.0e-12)

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
        assert trace.phi[-1] <= 1.0e-11
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
        assert trace.g_norm[-1] == 0.0
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
        assert trace.g_norm[-1] == 0.0
        assert trace.phi[-1] > 1.0e30
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
            np.testing.assert_array_equal(getattr(a, col), getattr(b, col))
        np.testing.assert_array_equal(a.x, b.x)

    def test_int_seed_matches_stream(self):
        fn = quadratic(2, 1.0, 1.0)
        a = minimize(fn.oracle(), [1.0, 1.0], EstimatorConfig(kind="gsg"),
                     LineSearchConfig(), budget=80, rng=5)
        b = minimize(fn.oracle(), [1.0, 1.0], EstimatorConfig(kind="gsg"),
                     LineSearchConfig(), budget=80, rng=RngStream(5))
        np.testing.assert_array_equal(a.f, b.f)

    def test_trace_shape_and_accounting(self):
        fn = quadratic(4, 1.0, 3.0)
        trace = minimize(fn.oracle(), np.ones(4), EstimatorConfig(kind="liod", sigma=1e-5),
                         LineSearchConfig(), budget=200, rng=1)
        size = trace.iterations + 1
        assert trace.x.shape == (size, 4)
        for col in ("evals", "f", "phi", "grad_norm_true", "g_norm", "alpha", "theta_k"):
            assert getattr(trace, col).shape == (size,)
        assert np.all(np.diff(trace.evals) >= 0)
        assert trace.evals[-1] == trace.evals_total <= 200

    def test_per_iteration_decrease_certificate(self):
        """With exact interpolation accuracy theta and zero noise, every
        accepted step cuts phi by at least eta ||grad phi||^2."""
        fn = quadratic(5, 1.0, 1.0)
        cfg = EstimatorConfig(kind="liod", adaptive=True, theta=0.25,
                              constants=fn.constants)
        trace = minimize(fn.oracle(), np.ones(5) / math.sqrt(5.0), cfg,
                         LineSearchConfig(), budget=2000, rng=3)
        rate = eta(LineSearchConstants(c1=0.2, tau=0.3, theta=0.25), 1.0)
        phi, gnt = trace.phi, trace.grad_norm_true
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
        assert trace.grad_norm_true[-1] < 0.8 + 1e-9

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
        np.testing.assert_array_equal(trace.x[-1], [1.0, 2.0])
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
        assert set(trace.alpha[:-1].tolist()) == {0.05}
        assert math.isnan(trace.alpha[-1])
        assert trace.phi[-1] < trace.phi[0]

    def test_adam_descends(self):
        fn = quadratic(2, 1.0, 1.0)
        trace = minimize(fn.oracle(), [1.0, -1.0],
                         EstimatorConfig(kind="liod", sigma=1e-5),
                         AdamConfig(alpha=0.1), budget=300, rng=0)
        assert trace.status == "budget_exhausted"
        assert trace.phi[-1] < 0.25 * trace.phi[0]

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
        assert trace.evals[0] >= 8


class TestDirectionBlocks:
    """minimize draws every direction set of a run in order from one
    generator of its stream, as many at once as fit in
    directions._BLOCK_FLOATS floats (liod's ORTHONORMAL_BLOCK at most, with
    one QR); the trace must be the one a draw per iteration gives, byte for
    byte, and iteration k's set is named rng.child(k)."""

    @staticmethod
    def trace_bytes(tmp_path, budget, kind="liod", stepper=LineSearchConfig(eps_f=1.0e-6)):
        fn = quadratic(10, 1.0, 10.0)
        trace = minimize(fn.oracle(NoiseModel("uniform", 1.0e-6, seed=3)), np.ones(10),
                         EstimatorConfig(kind=kind, sigma=1.0e-4), stepper, budget,
                         RngStream(8, 1))
        path = tmp_path / "trace.csv"
        write_trace(path, [trace], "")
        return trace, path.read_bytes() + trace.x.tobytes()

    def test_blocks_give_the_trace_of_one_set_per_draw(self, tmp_path, monkeypatch):
        trace, blocked = self.trace_bytes(tmp_path, 2000)
        assert trace.iterations > 3 * directions.ORTHONORMAL_BLOCK
        monkeypatch.setattr(directions, "ORTHONORMAL_BLOCK", 1)
        assert self.trace_bytes(tmp_path, 2000)[1] == blocked

    def test_run_ending_mid_block(self, tmp_path, monkeypatch):
        """Sets drawn past the run's last iteration change nothing."""
        monkeypatch.setattr(directions, "ORTHONORMAL_BLOCK", 1)
        trace, alone = self.trace_bytes(tmp_path, 300)
        for block in (trace.iterations + 5, 7):
            assert trace.iterations % block
            monkeypatch.setattr(directions, "ORTHONORMAL_BLOCK", block)
            assert self.trace_bytes(tmp_path, 300)[1] == alone

    @pytest.mark.parametrize("kind, stepper, budget", [
        ("liod", LineSearchConfig(eps_f=1.0e-6), 4000),
        ("gsg", FixedStepConfig(alpha=0.02), 3500),
    ], ids=["liod_line_search", "gsg_fixed"])
    def test_seed_blocks_give_the_trace_of_one_stream_per_set(
            self, tmp_path, monkeypatch, kind, stepper, budget):
        """A run seeds no child stream, so seeding core.SEED_BLOCK streams at
        once or one at a time gives a run past the first block its bytes."""
        trace, blocked = self.trace_bytes(tmp_path, budget, kind, stepper)
        assert trace.iterations > core.SEED_BLOCK
        monkeypatch.setattr(core, "SEED_BLOCK", 1)
        assert self.trace_bytes(tmp_path, budget, kind, stepper)[1] == blocked

    @pytest.mark.parametrize("kind, stepper, budget", [
        ("gsg", FixedStepConfig(alpha=0.02), 1500),
        ("cgsg", FixedStepConfig(alpha=0.02), 3000),
        ("ligd", LineSearchConfig(eps_f=1.0e-6), 1500),
        ("liod", LineSearchConfig(eps_f=1.0e-6), 1500),
    ], ids=["gsg", "cgsg", "ligd", "liod"])
    def test_sets_do_not_depend_on_the_block_size(self, tmp_path, monkeypatch, kind, stepper,
                                                  budget):
        """A run past its first block that ends mid-block has the bytes it
        has when each block holds one set."""
        trace, blocked = self.trace_bytes(tmp_path, budget, kind, stepper)
        block = directions._BLOCK_FLOATS // 100  # sets at n = N = 10
        if kind == "liod":
            block = min(block, directions.ORTHONORMAL_BLOCK)
        assert trace.iterations > block and 1 < trace.iterations % block < block - 1
        monkeypatch.setattr(directions, "_BLOCK_FLOATS", 1)
        assert self.trace_bytes(tmp_path, budget, kind, stepper)[1] == blocked

    def test_ligd_redraw_comes_from_the_child_of_its_stream(self, monkeypatch):
        """When the gate refuses iteration k's first ligd draw, the redraw is
        gaussian_directions(n, n, rng.child(k).child(1)), and every later
        iteration gets the set of the run without the refusal: the redraw
        takes nothing from the run's generator."""
        fn, rng, k = quadratic(10, 1.0, 10.0), RngStream(8, 1), 90  # mid second block
        real = estimators._condition_past_limit

        def tested_sets(refuse=None):
            """The Q of each call of ligd's gate, in order; with ``refuse``,
            the gate refuses the Q of that call."""
            tested = []

            def gate(Q):
                tested.append(Q.tobytes())
                return math.inf if len(tested) - 1 == refuse else real(Q)

            monkeypatch.setattr(estimators, "_condition_past_limit", gate)
            trace = minimize(fn.oracle(NoiseModel("uniform", 1.0e-6, seed=3)), np.ones(10),
                             EstimatorConfig(kind="ligd", sigma=1.0e-4),
                             LineSearchConfig(eps_f=1.0e-6), 3000, rng)
            assert trace.status == "budget_exhausted"
            return tested

        plain, forced = tested_sets(), tested_sets(refuse=k)
        assert forced[:k + 1] == plain[:k + 1]
        redraw = directions.gaussian_directions(10, 10, rng.child(k).child(1))
        assert forced[k + 1] == redraw.Q.tobytes()
        later = forced[k + 2:]
        assert len(later) > 100 and later == plain[k + 1:k + 1 + len(later)]


def preset(name, kind="none", bound=0.0):
    """A factory of fresh oracles of preset ``name`` with the given noise."""
    return lambda: get_function(name).oracle(NoiseModel(kind, bound, seed=5))


class TestInstrumentation:
    """minimize instruments each block of iterates as its loop reaches it:
    phi on one stack of the block's iterates, the norms by one stacked
    matmul.  The bytes must be those of instrumenting each iterate on its
    own, and of instrumenting the whole trace at once."""

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 20, 100])
    def test_stacked_norms_are_v_at_v(self, n):
        gen = RngStream(n).generator()
        A = gen.standard_normal((300, n)) * 10.0 ** gen.uniform(-150, 150, (300, 1))
        A[:3] = [[np.inf], [np.nan], [1.0e200]]  # an inf, a NaN and an overflowing square
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = optimizer._sq_norms(A)
            assert stacked.tobytes() == np.array([v @ v for v in A]).tobytes()
            assert np.sqrt(stacked).tobytes() == np.array([_norm(v) for v in A]).tobytes()

    @pytest.mark.parametrize("name", sorted(corpus()))
    def test_phi_of_a_stack_is_phi_of_each_row(self, name):
        fn = get_function(name)
        X = RngStream(7).generator().uniform(-3.0, 3.0, (257, fn.n))
        assert fn.value(X).tobytes() == np.array([fn.value(x[None, :])[0] for x in X]).tobytes()

    @staticmethod
    def reference(oracle, trace, estimates):
        """The trace with phi, ||grad phi|| and theta_k measured at each
        iterate alone, as the loop once did: every iterate has the estimate
        made there, the last one only if it has a g_norm.  Like the run, it
        ignores overflow: a failed run's last iterate may hold an inf."""
        columns = {"phi": [], "grad_norm_true": [], "theta_k": []}
        for k, (x, g_norm) in enumerate(zip(trace.x, trace.g_norm)):
            g = None if math.isnan(g_norm) else estimates[k].g
            with np.errstate(over="ignore", invalid="ignore"):
                phi = (float(oracle.phi(x[None, :])[0]) if oracle.vectorized
                       else float(oracle.phi(x)))
                grad_norm = theta_k = math.nan
                if oracle.grad_phi is not None:
                    grad = np.asarray(oracle.grad_phi(x), dtype=float)
                    grad_norm = _norm(grad)
                    if g is not None and grad_norm > 0:
                        theta_k = _norm(g - grad) / grad_norm
            for name, value in zip(columns, (phi, grad_norm, theta_k)):
                columns[name].append(value)
        return dataclasses.replace(trace, **{k: np.array(v) for k, v in columns.items()})

    @staticmethod
    def csv_bytes(tmp_path, trace):
        path = tmp_path / "trace.csv"
        write_trace(path, [trace], "")
        return path.read_bytes() + trace.x.tobytes()

    # case: (oracle factory, estimator, stepper, budget, status or None for any);
    # x0 is ones, or zeros for a case named "..._at_minimum" (grad phi = 0 there)
    CASES = {
        **{f"{kind}_{step}": (oracle, EstimatorConfig(kind=kind, sigma=1.0e-3), stepper, 700, None)
           for kind in ("gsg", "cgsg", "liod", "ligd", "fd")
           for step, oracle, stepper in [
               ("line_search", preset("quad_n10", "uniform", 1e-4), LineSearchConfig(eps_f=1e-4)),
               ("fixed", preset("sin_n10", "adversarial_sign", 1e-4), FixedStepConfig(alpha=0.02)),
               ("adam", preset("rosenbrock_n10", "sinusoidal", 1e-4), AdamConfig(alpha=0.01))]},
        "liod_adaptive": (preset("quad_n10", "uniform", 1e-4), EstimatorConfig(
            kind="liod", adaptive=True, constants=ProblemConstants(L=10.0, mu=1.0, eps_f=1e-4)),
            LineSearchConfig(eps_f=1e-4), 20000, "noise_floor"),
        "not_vectorized": (lambda: Oracle(lambda x: float(x @ x), 3, grad_phi=lambda x: 2.0 * x),
                           EstimatorConfig(kind="gsg", sigma=1e-4), LineSearchConfig(), 400, None),
        "no_grad_phi": (lambda: Oracle(get_function("quad_n10").value, 10, vectorized=True),
                        EstimatorConfig(kind="liod", sigma=1e-4), LineSearchConfig(), 400,
                        "budget_exhausted"),
        "failed_non_finite": (preset("quad_n10"), EstimatorConfig(kind="fd", sigma=1e-2),
                              FixedStepConfig(alpha=1.7e308), 500, "failed"),
        "failed_vanished": (preset("rosenbrock_n4"), EstimatorConfig(kind="fd", sigma=1e-6),
                            FixedStepConfig(alpha=1.0), 2000, "failed"),
        "noise_floor_stall": (preset("quad_n5", "uniform", 1e-3),
                              EstimatorConfig(kind="gsg", sigma=0.1),
                              LineSearchConfig(eps_f=0.0), 3000, "noise_floor"),
        "noise_floor_at_minimum": (preset("quad_n5"), EstimatorConfig(kind="gsg", sigma=0.1),
                                   LineSearchConfig(), 500, "noise_floor"),
        "converged": (lambda: Oracle(lambda x: 3.0, 2),
                      EstimatorConfig(kind="gsg", num_directions=2), LineSearchConfig(), 50,
                      "converged"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_trace_bytes_equal_per_iterate_reference(self, tmp_path, monkeypatch, case):
        make_oracle, est, stepper, budget, status = self.CASES[case]
        oracle = make_oracle()
        estimates = []
        real = optimizer.estimate_on
        monkeypatch.setattr(optimizer, "estimate_on",
                            lambda *args: estimates.append(real(*args)) or estimates[-1])
        x0 = np.full(oracle.dimension, 0.0 if case.endswith("at_minimum") else 1.0)
        trace = minimize(oracle, x0, est, stepper, budget, RngStream(4, 1))
        assert trace.status == (status or trace.status)
        assert self.csv_bytes(tmp_path, trace) == self.csv_bytes(
            tmp_path, self.reference(oracle, trace, estimates))

    @pytest.mark.parametrize("make_oracle", [
        preset("rosenbrock_n10", "sinusoidal", 1e-4),
        lambda: Oracle(lambda x: float(x @ x), 3, grad_phi=lambda x: 2.0 * x),
    ], ids=["vectorized", "not_vectorized"])
    def test_blocks_equal_the_whole_trace_at_once(self, tmp_path, monkeypatch, make_oracle):
        """A trace of more than two blocks that ends in a partial one has the
        bytes of one instrumentation of all its iterates."""
        calls = []
        real = optimizer._instrument
        monkeypatch.setattr(optimizer, "_instrument",
                            lambda oracle, rows: calls.append(len(rows)) or real(oracle, rows))

        def trace_bytes():
            oracle = make_oracle()
            trace = minimize(oracle, np.ones(oracle.dimension),
                             EstimatorConfig(kind="gsg", sigma=1.0e-3), AdamConfig(alpha=0.01),
                             7000, RngStream(4, 1))
            return len(trace.evals), self.csv_bytes(tmp_path, trace)

        length, blocked = trace_bytes()
        block = optimizer.INSTRUMENT_BLOCK
        assert length > 2 * block and length % block
        assert calls == [block] * (length // block) + [length % block]
        monkeypatch.setattr(optimizer, "INSTRUMENT_BLOCK", math.inf)
        assert trace_bytes() == (length, blocked)
        assert calls[-1] == length

    def test_instrumentation_error_propagates(self):
        """An error raised by instrumentation is not the run's failure: it
        leaves minimize, also from a block instrumented inside the run.
        grad_phi fails on its first call only, so a run that caught the
        error would end "failed" and return."""
        calls = []

        def grad_phi(x):
            calls.append(x)
            if len(calls) == 1:
                raise DFOError("grad_phi broke")
            return 2.0 * x

        oracle = Oracle(lambda x: float(x @ x), 2, grad_phi=grad_phi)
        with pytest.raises(DFOError, match="grad_phi broke"):
            minimize(oracle, np.ones(2), EstimatorConfig(kind="gsg", sigma=1.0e-3),
                     FixedStepConfig(alpha=1.0e-4), 3 * optimizer.INSTRUMENT_BLOCK,
                     RngStream(4, 1))

    def test_error_state_between_blocks_is_the_callers(self):
        """numpy's error state is a context variable, which run_blocks shares
        with its caller: it ignores overflow and invalid operations while it
        works on a block, and the caller's code between two blocks runs under
        the caller's own state."""
        seen = []
        oracle = Oracle(lambda x: seen.append(np.geterr()) or float(x @ x), 2)
        with np.errstate(over="raise", invalid="warn", divide="print"):
            caller = np.geterr()
            between = [np.geterr() for _ in optimizer.run_blocks(
                oracle, np.ones(2), EstimatorConfig(kind="gsg", sigma=1.0e-3),
                FixedStepConfig(alpha=1.0e-4), 12 * optimizer.INSTRUMENT_BLOCK, RngStream(4, 1))]
        assert len(between) > 3 and all(state == caller for state in between)
        assert {(s["over"], s["invalid"], s["divide"]) for s in seen} == {
            ("ignore", "ignore", "print")}
