"""Invariants of the paper's theory checked as Hypothesis properties.

Every property runs a fixed, derandomized set of examples, so the suite stays
deterministic and its run time bounded.
"""

import dataclasses
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dfoline import (
    AdamConfig,
    DirectionSet,
    EstimatorConfig,
    FixedStepConfig,
    LineSearchConfig,
    LineSearchConstants,
    NoiseModel,
    Oracle,
    RngStream,
    alpha_bar,
    armijo_holds,
    corpus,
    get_function,
    interpolation_error,
    interpolation_error_bound,
    minimize,
    orthonormal_directions,
)
from dfoline.core import NOISE_KINDS
from dfoline.estimators import ESTIMATORS, estimate_on
from dfoline.optimizer import GRAD_NORM_TOL

SETTINGS = settings(derandomize=True, deadline=None, max_examples=100, database=None)

presets = st.sampled_from(sorted(corpus()))
noise_kinds = st.sampled_from(NOISE_KINDS)
seeds = st.integers(0, 2**63 - 1)


@SETTINGS
@given(name=presets, kind=noise_kinds, log_sigma=st.floats(-6.0, -1.0),
       log_eps_f=st.floats(-10.0, -3.0), seed=seeds)
def test_interpolation_error_within_bound(name, kind, log_sigma, log_eps_f, seed):
    """The LIOD error never exceeds sqrt(n) (sigma L / 2 + 2 eps_f / sigma),
    whatever the bounded noise does, adversarial signs included."""
    fn = get_function(name)
    sigma, eps_f = 10.0**log_sigma, 10.0**log_eps_f
    oracle = fn.oracle(NoiseModel(kind, eps_f, seed=seed))
    x = RngStream(seed, 2).generator().uniform(-2.0, 2.0, fn.n)
    dirs = orthonormal_directions(fn.n, fn.n, RngStream(seed, 1))
    err = interpolation_error(oracle, x, sigma, dirs)
    bound = interpolation_error_bound(sigma, fn.n, dataclasses.replace(fn.constants, eps_f=eps_f))
    assert err <= bound * (1.0 + 1.0e-9)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(kind=st.sampled_from(["liod", "fd"]), data=st.data(), n=st.integers(1, 8),
       sigma=st.floats(1.0e-3, 1.0), c=st.floats(-1.0e3, 1.0e3))
def test_interpolation_is_exact_for_linear_phi(kind, data, n, sigma, c):
    """At zero noise, interpolation on any orthonormal Q returns the gradient
    a of phi = a^T x + c, up to the round-off of the n + 1 evaluations: the
    Q of a drawn matrix for liod, a signed row permutation of I for fd."""
    entries = st.floats(-10.0, 10.0)
    a, x = (np.array(data.draw(st.lists(entries, min_size=n, max_size=n))) for _ in "ax")
    if kind == "liod":
        M = np.array(data.draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
        assume(np.linalg.cond(M) < 1.0e8)
        Q = np.linalg.qr(M)[0]
    else:
        signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
        Q = np.eye(n)[data.draw(st.permutations(range(n)))] * np.array(signs)[:, None]
    oracle = Oracle(lambda X: X @ a + c, n, vectorized=True, name="linear")
    dirs = DirectionSet(Q, "orthonormal" if kind == "liod" else "coordinate")
    g = estimate_on(kind, oracle, x, sigma, dirs).g
    scale = np.abs(a).sum() * (np.abs(x).max() + sigma) + abs(c)
    np.testing.assert_allclose(g, a, rtol=0.0, atol=4 * n * (n + 2) * 2.0**-52 * scale / sigma)


@SETTINGS
@given(name=presets, kind=noise_kinds, log_eps_f=st.floats(-12.0, 0.0), seed=seeds,
       m=st.integers(1, 8))
def test_batch_evaluation_equals_sequential(name, kind, log_eps_f, seed, m):
    """A batch of m points gives the bits m single evaluations give."""
    fn = get_function(name)
    noise = NoiseModel(kind, 10.0**log_eps_f, seed=seed)
    X = RngStream(seed, 2).generator().uniform(-2.0, 2.0, (m, fn.n))
    batch = fn.oracle(noise).evaluate_batch(X)
    single = fn.oracle(noise)
    sequential = np.array([single.evaluate(x) for x in X])
    assert batch.tobytes() == sequential.tobytes()


def flat_oracle(noise):
    """A constant phi: with no noise every estimate vanishes."""
    return Oracle(lambda X: np.full(len(X), 3.0), 4, noise, vectorized=True, name="flat")


steppers = st.one_of(
    st.builds(LineSearchConfig, eps_f=st.sampled_from([0.0, 1e-6, 1e-3])),
    st.builds(FixedStepConfig, alpha=st.sampled_from([1e-3, 0.1, 1.0, 1e3, 1.7e308])),
    st.builds(AdamConfig, alpha=st.sampled_from([1e-2, 1.0, 1.7e308])),
)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(name=st.sampled_from(["quad_n5", "rosenbrock_n4", "sin_n10", "flat"]),
       kind=noise_kinds, bound=st.sampled_from([0.0, 1e-8, 1e-3]),
       estimator=st.sampled_from(sorted(ESTIMATORS)),
       sigma=st.sampled_from([1e-310, 1e-12, 1e-6, 1e-2, 1.0, 1e150]),
       stepper=steppers, budget=st.integers(1, 400), x0_scale=st.sampled_from([0.0, 1.0, 1e6]),
       seed=seeds)
def test_trace_status_agrees_with_records(name, kind, bound, estimator, sigma, stepper, budget,
                                          x0_scale, seed):
    """Whatever the run does, its columns all hold K + 1 iterates, their
    evals never fall nor pass the budget, every iterate but the last is a
    step with a finite alpha, the last has no alpha, and the status is one
    of the four ends.  A run
    reads converged only where phi is finite and sigma resolves the vanished
    gradient: spacing(|f|) / sigma <= GRAD_NORM_TOL."""
    noise = NoiseModel(kind, bound, seed=seed)
    oracle = flat_oracle(noise) if name == "flat" else get_function(name).oracle(noise)
    est = EstimatorConfig(kind=estimator, sigma=sigma)
    n = oracle.dimension
    if budget < est.evals_per_call(n) + 1:
        budget += est.evals_per_call(n) + 1
    x0 = x0_scale * RngStream(seed, 2).generator().uniform(-2.0, 2.0, n)
    trace = minimize(oracle, x0, est, stepper, budget, RngStream(seed, 1))
    size = len(trace.evals)
    assert trace.x.shape == (size, n)
    assert all(getattr(trace, c).shape == (size,)
               for c in ("f", "phi", "grad_norm_true", "g_norm", "alpha", "theta_k"))
    evals = trace.evals.tolist()
    assert evals == sorted(evals) and evals[-1] <= budget
    assert np.isfinite(trace.alpha[:-1]).all()
    assert math.isnan(trace.alpha[-1])
    assert trace.status in ("converged", "budget_exhausted", "noise_floor", "failed")
    if trace.status == "converged":
        assert math.isfinite(trace.phi[-1])
        assert float(np.spacing(abs(trace.f[-1]))) / sigma <= GRAD_NORM_TOL


six = st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6).map(np.array)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(n=st.integers(1, 6), mu=st.floats(0.1, 1.0), ratio=st.floats(1.0, 100.0),
       spread=six, point=six, direction=six, share=st.floats(0.0, 1.0), worst=st.booleans(),
       theta=st.floats(0.0, 0.5, exclude_max=True), c1_share=st.floats(0.001, 0.999),
       step_share=st.floats(1e-9, 1.0), eps_f=st.sampled_from([0.0, 1e-10, 1e-4, 1.0]),
       noise=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_armijo_accepts_every_step_up_to_alpha_bar(n, mu, ratio, spread, point, direction,
                                                   share, worst, theta, c1_share, step_share,
                                                   eps_f, noise):
    """On phi = x^T diag(lam) x / 2 with lam in [mu, L], an estimate g with
    ||g - grad phi|| <= theta ||grad phi|| passes the relaxed Armijo test at
    every alpha in (0, alpha_bar], whatever noise |eps| <= eps_f the values
    at x and at x - alpha g carry (e = -theta grad phi included).  Only
    round-off is forgiven."""
    L = mu * ratio
    lam = mu + (L - mu) * np.abs(spread[:n])
    x = 10.0 * point[:n]
    grad = lam * x
    grad_norm = math.sqrt(grad @ grad)
    d = direction[:n]
    assume(grad_norm > 1e-6 and (worst or d @ d > 0.0))
    e = -theta * grad if worst else share * theta * grad_norm * d / math.sqrt(d @ d)
    g = grad + e
    consts = LineSearchConstants(c1=c1_share * (1 - 2 * theta) / (1 - theta), tau=0.5,
                                 theta=theta)
    alpha = step_share * alpha_bar(consts, L)
    trial = x - alpha * g
    phi_x, phi_trial, g_sq = 0.5 * (x * lam) @ x, 0.5 * (trial * lam) @ trial, g @ g
    roundoff = 1e-12 * (abs(phi_x) + abs(phi_trial) + alpha * g_sq)
    assert armijo_holds(phi_x + eps_f * noise[0], phi_trial + eps_f * noise[1] - roundoff,
                        alpha, g_sq, consts.c1, eps_f)
