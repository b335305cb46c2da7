"""Gradient estimators: frozen worked examples, exactness, accounting, bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfoline import (
    ConditioningError,
    DFOError,
    DirectionSet,
    NoiseModel,
    Oracle,
    ProblemConstants,
    RngStream,
    UndefinedMetricError,
    cgsg,
    coordinate_directions,
    directions,
    gaussian_directions,
    gsg,
    interpolation_error_bound,
    interpolation_gradient,
    orthonormal_directions,
    relative_error,
)
from dfoline.estimators import ESTIMATORS, GradientEstimate, _norm, estimate


def linear_oracle(a, noise=None):
    a = np.asarray(a, dtype=float)
    return Oracle(lambda X: np.asarray(X) @ a, a.size, noise, vectorized=True)


def single_direction(u):
    u = np.asarray(u, dtype=float)[None, :]
    return DirectionSet(u, "gaussian")


class TestGsg:
    def test_constant_function_gives_zero(self):
        o = Oracle(lambda x: 7.0, 3)
        est = gsg(o, np.zeros(3), 0.5, gaussian_directions(3, 4, RngStream(1)))
        np.testing.assert_array_equal(est.g, np.zeros(3))

    def test_hand_example_sphere_single_direction(self):
        """f = ||x||^2 at x=(1,0), sigma=1, u=(1,1): difference 4, g = (4,4)."""
        o = Oracle(lambda x: float(np.dot(x, x)), 2)
        est = gsg(o, np.array([1.0, 0.0]), 1.0, single_direction([1.0, 1.0]))
        np.testing.assert_allclose(est.g, [4.0, 4.0], rtol=0, atol=1e-14)
        assert o.eval_count == 2
        assert est.f_center == 1.0

    def test_orthonormal_rows_underestimate_by_factor_n(self):
        """The 1/N average shrinks a linear gradient: a=(1,0) with e1,e2 gives (1/2, 0)."""
        o = linear_oracle([1.0, 0.0])
        dirs = DirectionSet(np.eye(2), "orthonormal")
        est = gsg(o, np.zeros(2), 0.1, dirs)
        np.testing.assert_allclose(est.g, [0.5, 0.0], rtol=0, atol=1e-12)

    def test_center_evaluated_once(self):
        o = linear_oracle([2.0, -1.0, 0.5])
        gsg(o, np.zeros(3), 0.2, gaussian_directions(3, 5, RngStream(3)))
        assert o.eval_count == 6  # N + 1, not 2N

    def test_unbiased_for_quadratic(self):
        """Means over fresh direction sets converge on grad phi.

        For a quadratic the Gaussian-smoothed gradient equals the true
        gradient (odd moments vanish), so the estimator mean must match it
        within a CLT tolerance componentwise.
        """
        A = np.diag([1.0, 2.0])
        x = np.array([1.0, -0.5])
        grad = A @ x
        o = Oracle(lambda X: 0.5 * np.sum((np.asarray(X) @ A) * X, axis=-1), 2, vectorized=True)
        reps, N, sigma = 20_000, 1, 0.3
        base = RngStream(321, 1)
        samples = np.empty((reps, 2))
        for r in range(reps):
            samples[r] = gsg(o, x, sigma, gaussian_directions(2, N, base.child(r))).g
        se = samples.std(axis=0, ddof=1) / np.sqrt(reps)
        assert np.all(np.abs(samples.mean(axis=0) - grad) <= 3.0 * se)


class TestCgsg:
    def test_symmetry_kills_even_terms(self):
        o = Oracle(lambda x: float(x[0] ** 2), 1)
        est = cgsg(o, np.zeros(1), 0.3, single_direction([1.0]))
        np.testing.assert_allclose(est.g, [0.0], rtol=0, atol=1e-14)

    def test_constant_function_gives_zero(self):
        o = Oracle(lambda x: -3.0, 2)
        est = cgsg(o, np.zeros(2), 1.0, gaussian_directions(2, 3, RngStream(0)))
        np.testing.assert_array_equal(est.g, np.zeros(2))

    def test_hand_example_linear(self):
        """a=(2,3), u=(1,1): symmetric difference spans 2 sigma, so
        g = (1/2)(f(x+su)-f(x-su))/s * u = (aT u) u = (5, 5)."""
        o = linear_oracle([2.0, 3.0])
        est = cgsg(o, np.zeros(2), 0.7, single_direction([1.0, 1.0]))
        np.testing.assert_allclose(est.g, [5.0, 5.0], rtol=0, atol=1e-12)
        assert o.eval_count == 2
        assert est.f_center is None  # center never queried

    def test_evals_are_2n(self):
        o = linear_oracle([1.0, 1.0])
        cgsg(o, np.zeros(2), 0.5, gaussian_directions(2, 6, RngStream(4)))
        assert o.eval_count == 12


class TestInterpolation:
    def test_linear_solve_hand_example(self):
        """a=(2,3), rows (1,0),(1,1): F=(2,5) and the solve returns a exactly."""
        o = linear_oracle([2.0, 3.0])
        Q = DirectionSet(np.array([[1.0, 0.0], [1.0, 1.0]]), "gaussian")
        est = interpolation_gradient(o, np.zeros(2), 1.0, Q)
        np.testing.assert_allclose(est.g, [2.0, 3.0], rtol=0, atol=1e-12)
        assert o.eval_count == 3

    def test_forward_difference_curvature_bias(self):
        """f = x^2 at 0 with sigma=0.1: g = sigma L / 2 = 0.1."""
        o = Oracle(lambda x: float(x[0] ** 2), 1)
        est = interpolation_gradient(o, np.zeros(1), 0.1, coordinate_directions(1))
        np.testing.assert_allclose(est.g, [0.1], rtol=0, atol=1e-15)

    def test_requires_n_directions(self):
        o = linear_oracle([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="N = n"):
            interpolation_gradient(o, np.zeros(3), 0.1, gaussian_directions(3, 2, RngStream(1)))

    @pytest.mark.parametrize("n", [2, 10, 50])
    def test_exactness_on_linear_functions(self, n):
        """All three direction kinds reproduce linear gradients to 1e-12 relative."""
        for seed in range(100):
            a = RngStream(seed, 3).generator().standard_normal(n)
            o = linear_oracle(a)
            for dirs in (
                coordinate_directions(n),
                orthonormal_directions(n, n, RngStream(seed, 1)),
                gaussian_directions(n, n, RngStream(seed, 1)),
            ):
                est = interpolation_gradient(o, np.zeros(n), 0.05, dirs)
                assert relative_error(est.g, a) <= 1.0e-12

    def test_coordinate_equals_textbook_forward_differences(self):
        fn = lambda x: float(np.sin(x[0]) + x[1] ** 3)
        o = Oracle(fn, 2)
        x = np.array([0.4, -1.2])
        sigma = 1e-4
        est = interpolation_gradient(o, x, sigma, coordinate_directions(2))
        f0 = fn(x)
        textbook = np.array([
            (fn(x + np.array([sigma, 0.0])) - f0) / sigma,
            (fn(x + np.array([0.0, sigma])) - f0) / sigma,
        ])
        np.testing.assert_array_equal(est.g, textbook)

    def test_error_bound_conformance(self):
        """With orthonormal rows, measured error never exceeds
        sqrt(n) (sigma L / 2 + 2 eps_f / sigma) across randomized trials."""
        eps_f = 1e-5
        n = 6
        A = np.diag(np.linspace(1.0, 4.0, n))  # L = 4 exactly
        consts = ProblemConstants(L=4.0, eps_f=eps_f)
        value = lambda X: 0.5 * np.sum((np.asarray(X) @ A) * X, axis=-1)
        for trial in range(1000):
            seed = 9000 + trial
            o = Oracle(
                value, n, NoiseModel(kind="uniform", bound=eps_f, seed=seed),
                vectorized=True,
            )
            x = RngStream(seed, 2).generator().uniform(-2, 2, n)
            sigma = (1e-2, 1e-3)[trial % 2]
            dirs = orthonormal_directions(n, n, RngStream(seed, 1))
            est = interpolation_gradient(o, x, sigma, dirs)
            err = np.linalg.norm(est.g - A @ x)
            assert err <= interpolation_error_bound(sigma, n, consts) * (1 + 1e-9)

    def test_conditioning_error_without_stream(self):
        """A near-singular direction set with no seed provenance fails before
        spending any evaluations."""
        o = linear_oracle([1.0, 1.0])
        Q = np.array([[1.0, 0.0], [1.0, 1e-12]])
        with pytest.raises(ConditioningError, match="condition number"):
            interpolation_gradient(o, np.zeros(2), 0.1, DirectionSet(Q, "gaussian"))
        assert o.eval_count == 0

    def test_conditioning_redraw_with_stream(self):
        """Seed provenance allows one automatic redraw, which recovers."""
        o = linear_oracle([2.0, -1.0])
        Q = np.array([[1.0, 0.0], [1.0, 1e-12]])
        bad = DirectionSet(Q, "gaussian", RngStream(13, 1))
        est = interpolation_gradient(o, np.zeros(2), 0.1, bad)
        np.testing.assert_allclose(est.g, [2.0, -1.0], rtol=0, atol=1e-10)


class TestCommonValidation:
    def test_sigma_must_be_positive(self):
        o = linear_oracle([1.0])
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="radius"):
                gsg(o, np.zeros(1), bad, coordinate_directions(1))

    def test_direction_dimension_must_match(self):
        o = linear_oracle([1.0, 2.0])
        with pytest.raises(ValueError, match="dimension"):
            gsg(o, np.zeros(2), 0.1, coordinate_directions(3))

    def test_estimate_must_be_finite(self):
        """A non-finite estimate is a runtime failure: here every value is
        finite but the quotient 1 / sigma overflows."""
        with pytest.raises(DFOError, match="non-finite"):
            GradientEstimate(np.array([np.nan]), None)
        o = Oracle(lambda x: float(x[0] > 0.0), 1)
        with pytest.raises(DFOError, match="non-finite"), np.errstate(over="ignore"):
            gsg(o, np.zeros(1), 1.0e-310, single_direction([1.0]))


class TestEstimateCost:
    @pytest.mark.parametrize("kind", list(ESTIMATORS))
    def test_evals_per_call_is_the_cost(self, kind):
        """EstimatorKind.evals_per_call is the one statement of a call's cost:
        estimate() spends exactly that many counted evaluations, and returns
        f(x) exactly when the kind measures the center."""
        spec = ESTIMATORS[kind]
        n = 3
        for N in (n,) if spec.interpolates else (n, 2 * n):
            o = linear_oracle([1.0, -2.0, 0.5])
            est = estimate(kind, o, np.ones(n), 0.1, N, RngStream(5, 1))
            assert o.eval_count == spec.evals_per_call(N)
            assert (est.f_center is not None) == spec.measures_center


class TestEstimatorTable:
    """Each row's ``sets`` is the block builder of its kind's directions."""

    REFERENCE = {
        "gsg": gaussian_directions,
        "cgsg": gaussian_directions,
        "liod": orthonormal_directions,
        "ligd": gaussian_directions,
        "fd": lambda n, N, stream: coordinate_directions(n),
    }

    @pytest.mark.parametrize("kind", list(ESTIMATORS))
    def test_sets_are_the_per_set_draws(self, kind, monkeypatch):
        """Per stream, a row's sets have the bytes, strides, kind and stream
        of its per-set reference builder; fd's coordinate sets draw nothing."""
        n = 5
        N = n if ESTIMATORS[kind].interpolates else 7
        streams = [RngStream(17, 1).child(k) for k in range(20)]  # past one QR block
        expected = [self.REFERENCE[kind](n, N, s) for s in streams]
        if kind == "fd":
            def no_draw(*args):
                raise AssertionError("coordinate sets drew from a stream")
            monkeypatch.setattr(directions, "generators", no_draw)
            monkeypatch.setattr(RngStream, "generator", no_draw)
        sets = list(ESTIMATORS[kind].sets(n, N, streams))
        assert len(sets) == len(expected)
        for got, ref in zip(sets, expected):
            assert got.Q.tobytes() == ref.Q.tobytes() and got.Q.strides == ref.Q.strides
            assert got.kind == ref.kind and got.stream == ref.stream

    @pytest.mark.parametrize("kind", ["gsg", "liod"])
    def test_estimate_needs_an_rng_stream(self, kind):
        """A bare int seed is the per-set builders' TypeError, before any
        evaluation."""
        o = linear_oracle([1.0, -2.0, 0.5])
        with pytest.raises(TypeError, match="rng must be an RngStream"):
            estimate(kind, o, np.ones(3), 0.1, 3, 5)
        assert o.eval_count == 0


class TestRelativeError:
    def test_exact_gives_zero(self):
        assert relative_error([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_zero_estimate_gives_one(self):
        assert relative_error([0.0, 0.0], [3.0, 4.0]) == 1.0

    def test_doubled_gradient_gives_one(self):
        assert relative_error([2.0, 4.0], [1.0, 2.0]) == 1.0

    def test_zero_true_gradient_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            relative_error([1.0], [0.0])

    def test_non_finite_true_gradient_rejected(self):
        with pytest.raises(ValueError):
            relative_error([1.0], [np.inf])

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(n=st.integers(1, 12), exponent=st.integers(-160, 160), data=st.data())
    def test_norm_is_numpys_bit_for_bit(self, n, exponent, data):
        """``_norm`` is np.linalg.norm's own formula for a vector, so theta
        keeps its bits; a sum of squares past the float range gives inf in both."""
        mantissas = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
        v, g = np.array(mantissas) * 10.0**exponent, np.array(mantissas[::-1]) * 10.0**exponent
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            assert _norm(v) == np.linalg.norm(v)
            if np.linalg.norm(v) != 0.0:
                expected = float(np.linalg.norm(g - v) / np.linalg.norm(v))
                assert repr(relative_error(g, v)) == repr(expected)
