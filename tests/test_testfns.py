"""Benchmark functions: values, gradients, certified constants, corpus."""

import math

import numpy as np
import pytest

from dfoline import (
    NoiseModel,
    RngStream,
    TestFunction,
    corpus,
    get_function,
    quadratic,
    rosenbrock,
    synthetic_sin,
)
from dfoline.bounds import ProblemConstants


class TestSyntheticSin:
    def test_origin_values(self):
        fn = synthetic_sin(2, 1.0, 2.0)
        assert fn.value(np.zeros(2)) == 1.0
        np.testing.assert_array_equal(fn.gradient(np.zeros(2)), [1.0, 0.0])

    def test_hand_value_with_coupling(self):
        # sin(pi/2) + cos(0) + ((2-1)/4)(pi/2)^2
        fn = synthetic_sin(2, 1.0, 2.0)
        got = fn.value(np.array([math.pi / 2.0, 0.0]))
        assert math.isclose(got, 2.0 + math.pi**2 / 16.0, rel_tol=1e-15)

    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_origin_gradient_norm_closed_form(self, n):
        """Coupling vanishes at 0, leaving M on each odd coordinate,
        hence norm sqrt(n/2) M."""
        fn = synthetic_sin(n, 2.0, 4.0)
        got = float(np.linalg.norm(fn.gradient(np.zeros(n))))
        assert math.isclose(got, math.sqrt(n / 2.0) * 2.0, rel_tol=1e-12)

    def test_constants(self):
        fn = synthetic_sin(10, 2.0, 4.0)
        assert fn.constants.L == 4.0
        assert fn.constants.phi_hat == -15.0  # -(n/2)(M+1)
        assert fn.kind == "nonconvex"
        assert fn.value(np.zeros(10)) >= fn.constants.phi_hat

    def test_validation(self):
        with pytest.raises(ValueError, match="even"):
            synthetic_sin(3, 1.0, 2.0)
        with pytest.raises(ValueError, match="M"):
            synthetic_sin(2, 2.0, 2.0)


class TestQuadratic:
    def test_one_dimensional_gradient(self):
        fn = quadratic(1, 1.0, 1.0)
        assert fn.gradient(np.array([3.0]))[0] == 3.0
        assert fn.value(np.array([3.0])) == 4.5

    def test_spectrum_endpoints(self):
        fn = quadratic(2, 1.0, 3.0)
        assert fn.value(np.array([1.0, 1.0])) == 2.0  # (1 + 3)/2
        np.testing.assert_array_equal(fn.gradient(np.array([1.0, 1.0])), [1.0, 3.0])
        assert fn.constants.mu == 1.0 and fn.constants.L == 3.0

    def test_eigenvalue_sandwich(self):
        fn = quadratic(7, 0.5, 4.0)
        X = np.random.default_rng(2).uniform(-3, 3, size=(50, 7))
        for x in X:
            v = fn.value(x)
            nx2 = float(x @ x)
            assert 0.5 * 0.5 * nx2 - 1e-12 <= v <= 0.5 * 4.0 * nx2 + 1e-12

    def test_minimum_is_origin(self):
        fn = quadratic(4, 1.0, 2.0)
        assert fn.value(np.zeros(4)) == 0.0
        assert fn.constants.phi_star == 0.0
        assert fn.kind == "strongly_convex"

    def test_validation(self):
        with pytest.raises(ValueError):
            quadratic(0, 1.0, 1.0)
        with pytest.raises(ValueError, match="mu"):
            quadratic(2, 3.0, 1.0)


class TestRosenbrock:
    def test_global_minimum(self):
        fn = rosenbrock(6)
        ones = np.ones(6)
        assert fn.value(ones) == 0.0
        np.testing.assert_array_equal(fn.gradient(ones), np.zeros(6))

    def test_classic_start_values(self):
        fn = rosenbrock(2)
        assert fn.value(np.zeros(2)) == 1.0
        x = np.array([-1.2, 1.0])
        assert math.isclose(fn.value(x), 24.2, rel_tol=1e-15)
        np.testing.assert_allclose(fn.gradient(x), [-215.6, -88.0], rtol=1e-12)

    def test_certified_smoothness_constant(self):
        # Gershgorin over the box: 1200 B^2 + 1200 B + 202 at B = 10
        assert rosenbrock(4).constants.L == 132202.0

    def test_validation(self):
        with pytest.raises(ValueError):
            rosenbrock(1)


class TestCorpus:
    def test_exact_preset_names(self):
        assert sorted(corpus()) == sorted([
            "sin_n20", "sin_n100", "sin_n10",
            "quad_n10", "quad_n20", "quad_n5",
            "rosenbrock_n4", "rosenbrock_n10",
        ])

    def test_presets_carry_dimensions(self):
        fns = corpus()
        assert fns["sin_n100"].n == 100
        assert fns["quad_n20"].constants.L == 100.0
        assert fns["rosenbrock_n10"].n == 10

    def test_built_once_and_not_changed_by_callers(self):
        fns = corpus()
        assert fns["quad_n5"] is get_function("quad_n5")
        del fns["sin_n10"]
        fns["quad_n5"] = None
        assert "sin_n10" in corpus() and get_function("quad_n5") is not None

    def test_get_function_unknown(self):
        with pytest.raises(KeyError, match="preset"):
            get_function("sphere")

    def test_every_preset_has_usable_constants(self):
        for name, fn in corpus().items():
            assert fn.constants.L is not None and fn.constants.L > 0, name
            assert fn.constants.L_f is not None and fn.constants.L_f > 0, name


def central_fd(value, x: np.ndarray) -> np.ndarray:
    h = 1.0e-5 * np.maximum(1.0, np.abs(x))
    E = np.diag(h)
    vals = value(np.vstack([x + E, x - E]))
    return (vals[: x.size] - vals[x.size:]) / (2.0 * h)


@pytest.mark.parametrize("fn", [
    *corpus().values(),
    synthetic_sin(2, 1.0, 2.0), synthetic_sin(6, 3.0, 10.0),
    quadratic(1, 1.0, 1.0), quadratic(7, 0.5, 20.0),
    rosenbrock(2), rosenbrock(5),
], ids=lambda fn: fn.name)
def test_gradient_matches_central_differences(fn):
    """Each analytic gradient agrees with central differences at 100 points
    of [-2, 2]^n, to 1e-6 max(1, ||g||)."""
    X = RngStream(731, 1).generator().uniform(-2.0, 2.0, size=(100, fn.n))
    for x in X:
        g = np.asarray(fn.gradient(x), dtype=float)
        err = np.linalg.norm(g - central_fd(fn.value, x))
        assert err <= 1.0e-6 * max(1.0, float(np.linalg.norm(g))), (fn.name, x)


class TestOracleBridge:
    def test_counting_and_instrumentation(self):
        fn = quadratic(3, 1.0, 1.0)
        oracle = fn.oracle()
        assert oracle.eval_count == 0
        x = np.array([1.0, 2.0, 2.0])
        assert oracle.evaluate(x) == 4.5
        assert oracle.eval_count == 1
        np.testing.assert_array_equal(oracle.grad_phi(x), x)
        assert oracle.eval_count == 1  # instrumentation is never billed
        assert oracle.name == fn.name

    def test_vectorized_batch(self):
        oracle = quadratic(2, 1.0, 1.0).oracle()
        X = np.array([[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_array_equal(oracle.evaluate_batch(X), [0.5, 2.0])
        assert oracle.eval_count == 2

    def test_noise_attaches_at_oracle(self):
        fn = synthetic_sin(4, 1.0, 2.0)
        oracle = fn.oracle(NoiseModel("sinusoidal", 0.5))
        x = np.array([0.3, -0.2, 1.0, 0.0])
        assert abs(oracle.evaluate(x) - fn.value(x)) <= 0.5
        assert oracle.evaluate(x) != fn.value(x)

    def test_kind_validated(self):
        with pytest.raises(ValueError, match="function class"):
            TestFunction("bad", 2, lambda x: 0.0, lambda x: np.zeros(2),
                         ProblemConstants(L=1.0), "saddle")
