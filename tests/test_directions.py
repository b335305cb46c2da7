"""Direction sets: coordinate basis, Gaussian draws, orthonormalized draws."""

import itertools

import numpy as np
import pytest

from dfoline import (
    DirectionSet,
    EvaluationError,
    Oracle,
    RngStream,
    cgsg,
    coordinate_directions,
    directions,
    gaussian_directions,
    orthonormal_directions,
)


def children(rng: RngStream):
    """rng.child(k) for k = 0, 1, ..., the streams of a run's iterations."""
    return map(rng.child, itertools.count())


class TestDirectionSetType:
    def test_count_and_dimension(self):
        ds = DirectionSet(np.ones((3, 5)), "gaussian")
        assert ds.Q.shape == (3, 5)

    def test_requires_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            DirectionSet(np.ones(4), "gaussian")

    def test_rejects_non_finite(self):
        """A NaN in a hand-built Q reaches the oracle as a query point, which
        rejects it before counting any evaluation."""
        Q = np.ones((2, 2))
        Q[0, 0] = np.nan
        o = Oracle(lambda x: float(np.sum(x)), 2)
        with pytest.raises(EvaluationError, match="not finite"):
            cgsg(o, np.zeros(2), 0.1, DirectionSet(Q, "gaussian"))
        assert o.eval_count == 0

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            DirectionSet(np.eye(2), "spherical")


class TestCoordinate:
    def test_identity_matrix(self):
        ds = coordinate_directions(4)
        np.testing.assert_array_equal(ds.Q, np.eye(4))
        assert ds.kind == "coordinate" and ds.stream is None

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            coordinate_directions(0)


class TestGaussian:
    def test_deterministic_given_stream(self):
        a = gaussian_directions(3, 5, RngStream(12, 1))
        b = gaussian_directions(3, 5, RngStream(12, 1))
        np.testing.assert_array_equal(a.Q, b.Q)
        assert a.stream == RngStream(12, 1) and a.kind == "gaussian"

    def test_bad_rng_type(self):
        """The builders take an RngStream only: not a bare seed or a Generator."""
        for build in (gaussian_directions, orthonormal_directions):
            for rng in ("seed", 7, RngStream(3).generator()):
                with pytest.raises(TypeError, match="RngStream"):
                    build(2, 2, rng)

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            gaussian_directions(0, 1, 0)
        with pytest.raises(ValueError):
            gaussian_directions(2, 0, 0)

    def test_rows_are_standard_normal(self):
        """First and second moments of the pooled entries match N(0,1)."""
        Q = gaussian_directions(4, 50_000, RngStream(100, 1)).Q
        flat = Q.ravel()
        se = 1.0 / np.sqrt(flat.size)
        assert abs(flat.mean()) < 4 * se
        # Var of x^2 for standard normal is 2
        assert abs((flat**2).mean() - 1.0) < 4 * np.sqrt(2.0) * se
        # rows uncorrelated across coordinates
        cov = np.cov(Q, rowvar=False)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 4 / np.sqrt(Q.shape[0])


class TestOrthonormal:
    @pytest.mark.parametrize("n,N", [(1, 1), (3, 2), (10, 10), (100, 30), (500, 500), (1200, 40)])
    def test_orthonormality_defect(self, n, N):
        ds = orthonormal_directions(n, N, RngStream(17, 1))
        defect = np.linalg.norm(ds.Q @ ds.Q.T - np.eye(N))
        assert defect <= 1.0e-10

    def test_deterministic_given_stream(self):
        a = orthonormal_directions(6, 4, RngStream(8, 1))
        b = orthonormal_directions(6, 4, RngStream(8, 1))
        np.testing.assert_array_equal(a.Q, b.Q)

    def test_more_rows_than_dimension_rejected(self):
        with pytest.raises(ValueError, match="orthonormal"):
            orthonormal_directions(3, 4, 0)

    def test_n_equals_one_gives_sign(self):
        ds = orthonormal_directions(1, 1, RngStream(2))
        assert ds.Q.shape == (1, 1) and abs(ds.Q[0, 0]) == 1.0

    def test_defect_over_many_seeds(self):
        for seed in range(500):
            ds = orthonormal_directions(3, 2, RngStream(seed, 1))
            assert np.linalg.norm(ds.Q @ ds.Q.T - np.eye(2)) <= 1.0e-10

    def test_haar_signs(self):
        """Every entry of Q has mean 0 over seeds: without the sign fix of R's
        diagonal, Householder QR makes Q[0, 0] negative in every draw."""
        seeds = 2000
        Qs = np.array([orthonormal_directions(3, 3, RngStream(seed, 1)).Q for seed in range(seeds)])
        se = Qs.std(axis=0, ddof=1) / np.sqrt(seeds)
        assert np.all(np.abs(Qs.mean(axis=0)) <= 5.0 * se), Qs.mean(axis=0) / se

    def test_rotation_invariance_of_span_distribution(self):
        """Mean outer product of single orthonormal rows is the isotropic I/n."""
        n, reps = 3, 20_000
        acc = np.zeros((n, n))
        base = RngStream(55, 1)
        for r in range(reps):
            u = orthonormal_directions(n, 1, base.child(r)).Q[0]
            acc += np.outer(u, u)
        acc /= reps
        assert np.max(np.abs(acc - np.eye(n) / n)) < 0.01


class TestOrthonormalBlocks:
    """``orthonormal_blocks`` draws ORTHONORMAL_BLOCK sets with one stacked
    QR; each set must be the one ``orthonormal_directions`` draws alone."""

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 20, 33])
    def test_sets_equal_per_stream_draws_bit_for_bit(self, n):
        B = directions.ORTHONORMAL_BLOCK
        rng = RngStream(91, 1)
        sets = list(itertools.islice(directions.orthonormal_blocks(n, n, children(rng)), 2 * B + 2))
        for k in (0, B - 1, B, 2 * B + 1):
            alone = orthonormal_directions(n, n, rng.child(k))
            assert sets[k].Q.tobytes() == alone.Q.tobytes()
            # the same memory layout, so products with Q round the same way
            assert sets[k].Q.strides == alone.Q.strides
            assert sets[k].stream == rng.child(k) and sets[k].kind == "orthonormal"

    def test_fewer_rows_than_dimension(self):
        rng = RngStream(4, 1)
        sets = directions.orthonormal_blocks(7, 3, children(rng))
        for k, ds in zip(range(3), sets):
            assert ds.Q.tobytes() == orthonormal_directions(7, 3, rng.child(k)).Q.tobytes()

    @pytest.mark.parametrize("n, N, stacked", [(22, 22, 16), (23, 23, 15), (100, 10, 8),
                                               (100, 100, 1)])
    def test_blocks_stack_at_most_two_to_the_13_floats(self, monkeypatch, n, N, stacked):
        """One set at n = 100 keeps a block of 100 x 100 draws out of memory."""
        shapes, haar_rows = [], directions._haar_rows
        monkeypatch.setattr(directions, "_haar_rows", lambda G: shapes.append(G.shape) or haar_rows(G))
        rng = RngStream(8, 1)
        sets = list(directions.orthonormal_blocks(n, N, [rng.child(k) for k in range(20)]))
        assert shapes[0] == (stacked, n, N) and len(sets) == 20
        assert sets[19].Q.tobytes() == orthonormal_directions(n, N, rng.child(19)).Q.tobytes()

    def test_sizes_validated(self):
        with pytest.raises(ValueError, match="orthonormal"):
            next(directions.orthonormal_blocks(3, 4, children(RngStream(0))))


class TestGaussianSets:
    """``gaussian_sets`` draws from block-seeded child streams; each set must
    be the one ``gaussian_directions`` draws alone."""

    def test_sets_equal_per_stream_draws_bit_for_bit(self):
        rng = RngStream(91, 1, (2,))
        sets = list(itertools.islice(directions.gaussian_sets(4, 7, children(rng)), 300))
        for k in (0, 1, 255, 256, 299):
            alone = gaussian_directions(4, 7, rng.child(k))
            assert sets[k].Q.tobytes() == alone.Q.tobytes() and sets[k].Q.shape == (7, 4)
            assert sets[k].stream == rng.child(k) and sets[k].kind == "gaussian"

    def test_sizes_validated(self):
        with pytest.raises(ValueError, match="N >= 1"):
            next(directions.gaussian_sets(3, 0, children(RngStream(0))))
