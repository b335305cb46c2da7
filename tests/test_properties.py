"""Invariants of the paper's theory checked as Hypothesis properties.

Every property runs a fixed, derandomized set of examples, so the suite stays
deterministic and its run time bounded.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dfoline import (
    NoiseModel,
    RngStream,
    corpus,
    get_function,
    interpolation_error,
    interpolation_error_bound,
)
from dfoline.core import NOISE_KINDS

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
    err = interpolation_error(oracle, x, sigma, RngStream(seed, 1))
    bound = interpolation_error_bound(sigma, fn.n, dataclasses.replace(fn.constants, eps_f=eps_f))
    assert err <= bound * (1.0 + 1.0e-9)


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
