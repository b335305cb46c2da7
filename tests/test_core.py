"""Oracle boundary: noise kinds, evaluation accounting, seeded streams."""

import itertools
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfoline import EvaluationError, NoiseModel, Oracle, RngStream, get_function
from dfoline.core import (DEFAULT_SINUSOID_OMEGA, NOISE_BLOCK, NOISE_KINDS, SEED_BLOCK, as_point,
                          generators)
from dfoline.harness.csvio import record_seed


def sphere(x):
    return float(np.dot(x, x))


class TestRngStream:
    def test_same_stream_same_sequence(self):
        a = RngStream(42, 3).generator().random(16)
        b = RngStream(42, 3).generator().random(16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_ids_distinct_sequences(self):
        a = RngStream(42, 0).generator().random(16)
        b = RngStream(42, 1).generator().random(16)
        assert not np.array_equal(a, b)

    def test_child_streams_differ_from_parent_and_siblings(self):
        base = RngStream(7)
        seqs = [base.generator().random(8)]
        seqs.append(base.child(0).generator().random(8))
        seqs.append(base.child(1).generator().random(8))
        seqs.append(base.child(0).child(0).generator().random(8))
        for i in range(len(seqs)):
            for j in range(i + 1, len(seqs)):
                assert not np.array_equal(seqs[i], seqs[j])

    def test_child_is_value_identified(self):
        assert RngStream(5, 1).child(3) == RngStream(5, 1, (3,))

    def test_generator_algorithm_pinned(self):
        # cross-platform byte-identity relies on a fixed bit generator
        gen = RngStream(0).generator()
        assert type(gen.bit_generator).__name__ == "PCG64"


def seed_words(gen):
    """The four uint64 words a generator's PCG64 was seeded with."""
    return gen.bit_generator.seed_seq.generate_state(4, np.uint64)


class TestChildGenerators:
    """``generators`` hashes the seeds of SEED_BLOCK streams at once; every
    stream must get numpy's own seed words and draws."""

    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(seed=st.one_of(st.sampled_from([0, 2**64 - 1, 2**97 + 3, 2**160 + 1]),
                          st.integers(0, 2**200)),
           stream_id=st.one_of(st.integers(0, 3), st.integers(0, 2**70)),
           path=st.lists(st.integers(0, 2**40), max_size=3),
           start=st.sampled_from([0, 1, SEED_BLOCK - 3, 2**32 - SEED_BLOCK - 2]))
    def test_seed_words_are_numpys(self, seed, stream_id, path, start):
        rng = RngStream(seed, stream_id, tuple(path))
        gens = generators(map(rng.child, itertools.count(start)))
        for k, gen in zip(range(start, start + SEED_BLOCK + 2), gens):
            expected = np.random.SeedSequence(seed, spawn_key=(stream_id, *path, k))
            assert seed_words(gen).tobytes() == expected.generate_state(4, np.uint64).tobytes()

    @pytest.mark.parametrize("k", [0, SEED_BLOCK - 1, SEED_BLOCK, 2**32 - 1, 2**32])
    def test_draws_equal_the_childs_own(self, k):
        rng = RngStream(2**64 - 1, 1, (5,))
        alone = rng.child(k).generator().standard_normal(9)
        assert next(generators([rng.child(k)])).standard_normal(9).tobytes() == alone.tobytes()

    def test_stream_runs_on_past_two_to_the_32(self):
        """The last one-word child index and the first two-word one follow each other."""
        rng = RngStream(3, 2)
        children = [rng.child(k) for k in range(2**32 - 2, 2**32 + 2)]
        for child, gen in zip(children, generators(children)):
            assert gen.random(4).tobytes() == child.generator().random(4).tobytes()

    @pytest.mark.parametrize("rng, start", [
        (RngStream(-1), 0), (RngStream(0, -2), 0), (RngStream(0, 1, (4, -3)), 0),
        (RngStream(0), -1),
    ], ids=["seed", "stream_id", "path", "start"])
    def test_negative_entries_rejected(self, rng, start):
        with pytest.raises(ValueError, match="non-negative"):
            next(generators(map(rng.child, itertools.count(start))))

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_record_streams(self, k):
        """A sweep's streams: one per record seed, at stream id k."""
        streams = [RngStream(record_seed(7, "exp", "sin_n10", "ligd", "0.01", 10, t), k)
                   for t in range(SEED_BLOCK + 3)]
        for s, gen in zip(streams, generators(streams), strict=True):
            assert seed_words(gen).tobytes() == seed_words(s.generator()).tobytes()

    def test_mixed_block(self):
        """Key lengths other than the block's first, seeds of 2**128 and over
        and key entries of 2**32 and over are seeded by numpy, in order."""
        streams = [RngStream(5, 1, (2,)), RngStream(6, 1), RngStream(2**128 - 1, 0, (3,)),
                   RngStream(2**128, 0, (3,)), RngStream(0, 2**32 - 1, (2**32,)),
                   RngStream(0, 2**32 - 1, (2**32 - 1,)), RngStream(9, 4, (1, 2)), RngStream(0)]
        for s, gen in zip(streams, generators(streams), strict=True):
            assert gen.random(3).tobytes() == s.generator().random(3).tobytes()

    @pytest.mark.parametrize("m", [0, SEED_BLOCK - 1, SEED_BLOCK, SEED_BLOCK + 1])
    def test_block_edges(self, m):
        streams = [RngStream(11 + k // 2, k % 2) for k in range(m)]
        gens = list(generators(iter(streams)))
        assert len(gens) == m
        for k in {0, m - 1, SEED_BLOCK - 1, SEED_BLOCK} & set(range(m)):
            assert seed_words(gens[k]).tobytes() == seed_words(streams[k].generator()).tobytes()

    def test_cli_import_leaves_numpy_random_out(self):
        """numpy.random costs about 13 ms to import; the CLI does not load it
        until a run first draws."""
        code = "import sys, dfoline.harness.cli; print('numpy.random' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.strip() == "False"

    def test_cli_needs_no_jsonschema(self, tmp_path):
        """Configs are checked by the library's own schema walker: the CLI
        does not import jsonschema, and configs load with it blocked."""
        trials = tmp_path / "trials.json"
        trials.write_text(json.dumps({"experiment": "grad_accuracy", "functions": ["quad_n5"],
                                      "estimators": ["gsg"], "sigmas": [0.1], "trials": 2.0}))
        code = ("import sys, dfoline.harness.cli\n"
                "assert 'jsonschema' not in sys.modules\n"
                "sys.modules['jsonschema'] = None\n"
                "from dfoline.harness.config import ConfigError, load_config\n"
                "for path in sys.argv[2:]: load_config(path)\n"
                "try: load_config(sys.argv[1])\n"
                "except ConfigError as exc: print(exc)\n")
        configs = sorted(pathlib.Path(__file__).resolve().parents[1].glob("perfbench/configs/*.json"))
        assert len(configs) == 3
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code, str(trials), *map(str, configs)],
                             capture_output=True, text=True, check=True, env=env)
        assert out.stdout == "invalid config at trials: 2.0 is not of type 'integer'\n"


class TestNoiseModel:
    def test_defaults(self):
        m = NoiseModel()
        assert m.kind == "none" and m.bound == 0.0
        assert m.omega == DEFAULT_SINUSOID_OMEGA == 1.0e3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="noise kind"):
            NoiseModel(kind="gaussian")

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    def test_bad_bound_rejected(self, bad):
        with pytest.raises(ValueError, match="bound"):
            NoiseModel(kind="uniform", bound=bad)

    @pytest.mark.parametrize("bad", [0.0, -5.0, float("nan"), float("inf")])
    def test_bad_omega_rejected(self, bad):
        with pytest.raises(ValueError, match="omega must be finite and > 0"):
            NoiseModel(kind="sinusoidal", bound=1e-3, omega=bad)


class TestAsPoint:
    def test_valid(self):
        x = as_point([1, 2, 3], 3)
        assert x.dtype == float and x.shape == (3,)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="dimension 3"):
            as_point([1.0, 2.0], 3)

    def test_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_point([1.0, np.nan], 2)


class TestOracleAccounting:
    def test_single_eval_counts_one(self):
        o = Oracle(sphere, 2)
        assert o.eval_count == 0
        o.evaluate([1.0, 2.0])
        assert o.eval_count == 1
        o.evaluate([0.0, 0.0])
        assert o.eval_count == 2
        o.evaluate([3.0, 4.0])
        assert o.eval_count == 3

    def test_batch_counts_per_row(self):
        o = Oracle(sphere, 2)
        o.evaluate_batch(np.zeros((7, 2)))
        assert o.eval_count == 7

    def test_instrumentation_is_uncounted(self):
        o = Oracle(sphere, 2, grad_phi=lambda x: 2.0 * np.asarray(x))
        o.phi(np.array([1.0, 1.0]))
        o.grad_phi(np.array([1.0, 1.0]))
        assert o.eval_count == 0

    def test_noiseless_value(self):
        o = Oracle(sphere, 2)
        assert o.evaluate([3.0, 4.0]) == 25.0


class TestOracleValidation:
    def test_dimension_must_be_positive(self):
        with pytest.raises(ValueError, match="dimension"):
            Oracle(sphere, 0)

    def test_point_shape_checked(self):
        o = Oracle(sphere, 3)
        with pytest.raises(ValueError):
            o.evaluate([1.0, 2.0])

    def test_batch_shape_checked(self):
        o = Oracle(sphere, 3)
        with pytest.raises(ValueError, match="batch"):
            o.evaluate_batch(np.zeros((4, 2)))

    @pytest.mark.parametrize("phi", [lambda X: float(X.sum()), lambda X: X.sum(axis=1)[:, None]],
                             ids=["scalar", "column"])
    def test_vectorized_phi_gives_one_value_per_point(self, phi):
        o = Oracle(phi, 2, NoiseModel("uniform", 1e-3), vectorized=True)
        with pytest.raises(ValueError, match=r"vectorized phi gave shape .*, not \(3,\)"):
            o.evaluate_batch(np.ones((3, 2)))
        assert o.eval_count == 0

    def test_non_finite_input_rejected_before_evaluation(self):
        calls = []

        def phi(x):
            calls.append(1)
            return 0.0

        o = Oracle(phi, 2)
        X = np.array([[0.0, 0.0], [np.inf, 0.0]])
        with pytest.raises(EvaluationError, match="row 1") as info:
            o.evaluate_batch(X)
        np.testing.assert_array_equal(info.value.x, [np.inf, 0.0])
        assert not calls and o.eval_count == 0

    def test_non_finite_point_is_an_evaluation_error(self):
        o = Oracle(sphere, 2)
        with pytest.raises(EvaluationError, match="not finite") as info:
            o.evaluate([np.nan, 1.0])
        assert np.isnan(info.value.x[0]) and o.eval_count == 0

    def test_non_finite_output_raises_with_point(self):
        def phi(x):
            return np.inf if x[0] > 0.5 else 0.0

        o = Oracle(phi, 2)
        with pytest.raises(EvaluationError) as info:
            o.evaluate_batch(np.array([[0.0, 0.0], [1.0, 3.0]]))
        np.testing.assert_array_equal(info.value.x, [1.0, 3.0])
        # the failing batch was still spent
        assert o.eval_count == 2

    @pytest.mark.parametrize("X, row, text", [
        ([[1.0, 2.0], [np.inf, -np.inf], [np.nan, 0.0]], 1, "query point at batch row 1 is not finite"),
        ([[1.0e200, 1.0], [1.0, -np.inf]], 1, "query point at batch row 1 is not finite"),
        ([[0.0, 0.0], [3.0, 0.0], [1.0e300, 1.0e300]], 1,
         "objective returned a non-finite value at batch row 1"),
    ], ids=["both_infinities", "huge_then_inf", "inf_value"])
    def test_rejected_batch_names_its_first_bad_row(self, X, row, text):
        """The sum-of-squares check finds a bad entry; the search names the first
        bad row, as a search of every row did, and numpy warns of nothing."""
        o = Oracle(lambda x: np.inf if x[0] == 3.0 else float(x[0]), 2)
        with pytest.raises(EvaluationError, match=f"^{text}$") as info:
            o.evaluate_batch(np.array(X))
        np.testing.assert_array_equal(info.value.x, X[row])

    def test_finite_batch_past_the_sums_range_is_evaluated(self):
        """Squares past the float range send the check to the row search,
        which finds no bad row: the batch is evaluated and counted."""
        o = Oracle(lambda x: float(x[0]), 2)
        X = np.array([[1.0e200, -1.0e300], [1.7e308, 1.7e308]])
        np.testing.assert_array_equal(o.evaluate_batch(X), [1.0e200, 1.7e308])
        assert o.evaluate(X[1]) == 1.7e308 and o.eval_count == 3

    def test_repr_mentions_name_and_count(self):
        o = Oracle(sphere, 2, name="sphere")
        o.evaluate([0.0, 0.0])
        assert "sphere" in repr(o) and "evals=1" in repr(o)


class TestNoiseKinds:
    def test_uniform_within_bound_and_seeded(self):
        noise = NoiseModel(kind="uniform", bound=0.5, seed=11)
        a = Oracle(sphere, 2, noise)
        b = Oracle(sphere, 2, noise)
        X = RngStream(3).generator().uniform(-2, 2, (200, 2))
        fa = a.evaluate_batch(X)
        fb = b.evaluate_batch(X)
        np.testing.assert_array_equal(fa, fb)  # same seed, same noise
        eps = fa - np.sum(X * X, axis=1)
        assert np.max(np.abs(eps)) <= 0.5
        assert np.std(eps) > 0.05  # actually random, not degenerate

    def test_batch_matches_sequential_bitwise(self):
        """A size-k batch consumes the noise stream exactly like k scalar calls."""
        noise = NoiseModel(kind="uniform", bound=0.3, seed=5)
        X = RngStream(9).generator().uniform(-1, 1, (50, 3))
        batch = Oracle(sphere, 3, noise).evaluate_batch(X)
        seq_oracle = Oracle(sphere, 3, noise)
        seq = np.array([seq_oracle.evaluate(row) for row in X])
        np.testing.assert_array_equal(batch, seq)

    def test_adversarial_sign_is_exactly_plus_minus_bound(self):
        noise = NoiseModel(kind="adversarial_sign", bound=0.25, seed=2)
        o = Oracle(lambda x: 0.0, 1, noise)
        vals = o.evaluate_batch(np.zeros((100, 1)))
        assert set(np.unique(vals)) == {-0.25, 0.25}

    def test_sinusoidal_is_deterministic_in_x(self):
        noise = NoiseModel(kind="sinusoidal", bound=0.1, omega=7.0)
        o = Oracle(sphere, 2, noise)
        x = np.array([0.3, 0.4])
        f1 = o.evaluate(x)
        f2 = o.evaluate(x)
        assert f1 == f2 == sphere(x) + 0.1 * np.sin(7.0 * 0.7)

    def test_zero_bound_is_noise_free(self):
        o = Oracle(sphere, 2, NoiseModel(kind="uniform", bound=0.0, seed=1))
        assert o.evaluate([1.0, 0.0]) == 1.0


class TestNoiseRng:
    """An oracle given its noise stream's generator makes the draws it makes
    alone; a generator seeded for any other stream is refused."""

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("seeding", ["numpy", "block"])
    def test_given_generator_gives_the_defaults_draws(self, kind, seeding):
        noise = NoiseModel(kind, 0.5, seed=2**63 + 7, omega=3.0)
        stream = RngStream(noise.seed, 0)
        rng = stream.generator() if seeding == "numpy" else next(generators([stream]))
        X = RngStream(1).generator().uniform(-2, 2, (40, 3))
        given, alone = Oracle(sphere, 3, noise, noise_rng=rng), Oracle(sphere, 3, noise)
        assert given.evaluate_batch(X).tobytes() == alone.evaluate_batch(X).tobytes()
        assert [given.evaluate(x) for x in X] == [alone.evaluate(x) for x in X]

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("make", [
        lambda s: RngStream(s, 1).generator(),
        lambda s: RngStream(s + 1, 0).generator(),
        lambda s: next(generators([RngStream(s, 1)])),
        lambda s: next(generators([RngStream(s + 1, 0)])),
        lambda s: np.random.default_rng(),
        lambda s: np.random.Generator(np.random.MT19937(np.random.SeedSequence(s, spawn_key=(0,)))),
    ], ids=["stream_1", "seed_plus_1", "block_stream_1", "block_seed_plus_1", "default_rng",
            "mt19937"])
    def test_other_generator_rejected_before_any_evaluation(self, kind, make):
        calls = []
        with pytest.raises(ValueError, match="noise_rng"):
            Oracle(lambda x: calls.append(x) or 0.0, 2, NoiseModel(kind, 0.1, seed=9),
                   noise_rng=make(9))
        assert calls == []

    def test_test_function_passes_it_on(self):
        fn = get_function("quad_n5")
        noise = NoiseModel("uniform", 1e-3, seed=4)
        given = fn.oracle(noise, RngStream(4, 0).generator()).evaluate_batch(np.eye(5))
        assert given.tobytes() == fn.oracle(noise).evaluate_batch(np.eye(5)).tobytes()
        with pytest.raises(ValueError, match="noise_rng"):
            fn.oracle(noise, RngStream(4, 2).generator())


class TestNoiseDrawnAhead:
    """Stochastic noise is drawn ahead, up to NOISE_BLOCK values at once; each
    call's values are still those of one draw per call from a fresh stream."""

    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(kind=st.sampled_from(["uniform", "adversarial_sign"]),
           seed=st.integers(0, 2**64 - 1), given_rng=st.booleans(),
           sizes=st.lists(st.integers(0, 300), min_size=1, max_size=60))
    def test_values_are_per_call_draws(self, kind, seed, given_rng, sizes):
        noise = NoiseModel(kind, 0.25, seed=seed)
        stream = RngStream(seed, 0)
        oracle = Oracle(lambda X: np.zeros(len(X)), 2, noise, vectorized=True,
                        noise_rng=next(generators([stream])) if given_rng else None)
        fresh = stream.generator()
        for k in sizes:
            u = fresh.random(k)
            want = 0.25 * (2.0 * u - 1.0) if kind == "uniform" else np.where(u < 0.5, 0.25, -0.25)
            assert oracle.evaluate_batch(np.zeros((k, 2))).tobytes() == (0.0 + want).tobytes()
        assert oracle.eval_count == sum(sizes)

    def test_sizes_crossing_the_block(self):
        """Runs of sizes past NOISE_BLOCK, a single oversized call, and empty
        calls give the per-call values; the first two calls draw 1, then N."""
        sizes = [1, 11] + [300] * 20 + [0, 2 * NOISE_BLOCK + 1, 0, 7] + [299] * 20
        assert sum(sizes) > 3 * NOISE_BLOCK
        noise = NoiseModel("uniform", 1.0, seed=3)
        oracle, fresh = Oracle(sphere, 1, noise), RngStream(3, 0).generator()
        drawn, real = [], oracle._noise_gen

        class Spy:
            def random(self, k):
                drawn.append(k)
                return real.random(k)

        oracle._noise_gen = Spy()
        for k in sizes:
            want = 2.0 * fresh.random(k) - 1.0
            assert oracle.evaluate_batch(np.zeros((k, 1))).tobytes() == (0.0 + want).tobytes()
        assert drawn[:2] == [1, 11] and max(drawn) == 2 * NOISE_BLOCK + 1
        assert all(k <= NOISE_BLOCK for k in drawn if k != 2 * NOISE_BLOCK + 1)


class TestWrapWithNoise:
    """A noise model attached to a smooth function at the oracle boundary."""

    def test_hard_bound_holds_everywhere(self):
        noise = NoiseModel(kind="uniform", bound=1e-3, seed=4)
        o = Oracle(sphere, 4, noise, name="sphere4")
        X = RngStream(1).generator().uniform(-3, 3, (500, 4))
        eps = o.evaluate_batch(X) - np.sum(X * X, axis=1)
        assert np.max(np.abs(eps)) <= 1e-3
        assert o.name == "sphere4"

    def test_grad_passthrough_and_vectorized_flag(self):
        grad = lambda x: 2.0 * np.asarray(x)
        o = Oracle(
            lambda X: np.sum(np.asarray(X) ** 2, axis=-1),
            2,
            NoiseModel(),
            grad_phi=grad,
            vectorized=True,
        )
        assert o.grad_phi is grad and o.vectorized
        np.testing.assert_array_equal(o.evaluate_batch(np.eye(2)), [1.0, 1.0])
