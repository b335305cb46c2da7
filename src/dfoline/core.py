"""Black-box oracles with bounded noise, evaluation accounting, and seeded RNG streams.

Everything downstream (direction generation, gradient estimation, line search,
experiment harness) sees the objective only through an :class:`Oracle`, which
returns ``f(x) = phi(x) + eps(x)`` where ``phi`` is smooth and the noise term
is hard-bounded: ``|eps(x)| <= eps_f`` for every query, with no further
distributional assumption.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

NOISE_KINDS = ("none", "uniform", "sinusoidal", "adversarial_sign")

#: Default angular frequency for sinusoidal noise.  Fast enough that the
#: oscillation is effectively non-smooth at the sampling radii exercised here.
DEFAULT_SINUSOID_OMEGA = 1.0e3

#: Child streams whose seeds :meth:`RngStream.child_generators` derives at once.
SEED_BLOCK = 256

# the constants of numpy's SeedSequence hash (NEP 19), on 32-bit words
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED


def _hash(value, const: int, mult: int):
    """One hash step on ``value`` (uint64 entries below 2**32), and the next constant."""
    const_next = const * mult & _MASK
    value = (value ^ const) * const_next & _MASK
    return value ^ value >> 16, const_next


def _child_seeds(pool: list, const: int, start: int, stop: int) -> np.ndarray:
    """The (stop - start, 4) uint64 PCG64 seeds of children start..stop-1: each
    index, the last entropy word, mixed into the parent's pool, then hashed out."""
    pool, index = list(pool), np.arange(start, stop, dtype=np.uint64)
    for dst in range(4):
        h, const = _hash(index, const, _MULT_A)
        mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * h) & _MASK
        pool[dst] = mixed ^ mixed >> 16
    state, const = [], _INIT_B
    for i in range(8):
        word, const = _hash(pool[i % 4], const, _MULT_B)
        state.append(word)
    return np.stack([lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])], axis=1)


class _SeedWords:
    """A child's four PCG64 seed words, standing in for its SeedSequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype):
        if (n_words, dtype) != (4, np.uint64):  # PCG64's one request
            raise ValueError("holds PCG64's four uint64 seed words only")
        return self.words


class DFOError(Exception):
    """Base class for runtime failures raised by this package."""


class EvaluationError(DFOError):
    """The host function returned a non-finite value.

    Carries the offending point in ``.x`` so the failing sample can be
    reproduced.
    """

    def __init__(self, message: str, x: np.ndarray):
        super().__init__(message)
        self.x = np.asarray(x, dtype=float).copy()


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    Identical ``(seed, stream_id)`` always yields the identical draw sequence;
    distinct ids give streams that are independent by construction
    (``SeedSequence`` spawn keys).  The generator algorithm is pinned to PCG64
    so sequences are byte-identical across platforms.  Child streams come in
    blocks (:meth:`child_generators`), each with the bits numpy gives it alone.
    """

    seed: int
    stream_id: int = 0
    path: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        """Return a fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, *self.path))
        return np.random.Generator(np.random.PCG64(ss))

    def child(self, index: int) -> "RngStream":
        """Derive the ``index``-th sub-stream (independent of this one)."""
        return RngStream(self.seed, self.stream_id, (*self.path, index))

    def child_generators(self, start: int = 0) -> Iterator[np.random.Generator]:
        """``self.child(k).generator()`` for k = start, start + 1, ..., with the
        same bits.  Children differ only in their last entropy word, so the
        pool before it is numpy's, and SEED_BLOCK seeds are hashed from it at
        once; each generator is built as it is yielded.  Past 2**32 a child's
        index has two words, and numpy seeds the child."""
        from numpy.random.bit_generator import ISeedSequence  # not at import

        if start < 0:
            raise ValueError(f"expected non-negative integer, got {start}")
        ISeedSequence.register(_SeedWords)
        Generator, PCG64 = np.random.Generator, np.random.PCG64
        key = (self.stream_id, *self.path)
        pool = [int(w) for w in np.random.SeedSequence(self.seed, spawn_key=key).pool]
        # 4 hash steps per entropy word: the seed's, padded to 4, then the key's
        n_words = [max(1, (int(v).bit_length() + 31) // 32) for v in (self.seed, *key)]
        steps = 4 * (max(4, n_words[0]) + sum(n_words[1:]))
        const = _INIT_A * pow(_MULT_A, steps, 2**32) & _MASK
        k = start
        while k < 2**32:
            for words in _child_seeds(pool, const, k, min(k + SEED_BLOCK, 2**32)):
                yield Generator(PCG64(_SeedWords(words)))
                k += 1
        for k in itertools.count(k):
            yield self.child(k).generator()


@dataclass(frozen=True)
class NoiseModel:
    """Bounded evaluation noise attached at the oracle boundary.

    ``bound`` is the hard cap eps_f: every emitted eps(x) satisfies
    ``|eps(x)| <= bound`` exactly, never just in expectation.

    kinds:
      * ``none``             -- eps(x) = 0.
      * ``uniform``          -- eps drawn uniformly from [-bound, bound] by the
                                seeded stream, one draw per evaluation.
      * ``sinusoidal``       -- deterministic in x: bound * sin(omega * sum(x)).
      * ``adversarial_sign`` -- +bound or -bound, chosen by the seeded stream
                                per call.
    """

    kind: str = "none"
    bound: float = 0.0
    seed: int = 0
    omega: float = DEFAULT_SINUSOID_OMEGA

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; expected one of {NOISE_KINDS}")
        if not np.isfinite(self.bound) or self.bound < 0:
            raise ValueError(f"bound must be finite and >= 0, got {self.bound}")
        if not 0 < self.omega < np.inf:
            raise ValueError(f"omega must be finite and > 0, got {self.omega}")


def as_point(x, n: int, *, finite: bool = True) -> np.ndarray:
    """Validate and return ``x`` as a float vector of length ``n``, finite
    unless ``finite`` is False (the oracle then rejects it as an evaluation)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"expected a point of dimension {n}, got shape {x.shape}")
    if finite and not np.isfinite(x).all():
        raise ValueError("point contains non-finite entries")
    return x


class Oracle:
    """Evaluation-counting wrapper around ``f(x) = phi(x) + eps(x)``.

    The optimizer-facing surface is :meth:`evaluate` (and its batched variant);
    each call increments ``eval_count`` by exactly one per point.  The smooth
    part and its analytic gradient, when known, stay reachable through
    :attr:`phi` and :attr:`grad_phi` for instrumentation only -- reading them
    never touches the evaluation counter.  A ``vectorized`` phi maps an
    (m, n) batch to m values; any other shape is a ValueError.
    """

    def __init__(
        self,
        phi,
        dimension: int,
        noise: NoiseModel | None = None,
        *,
        grad_phi=None,
        vectorized: bool = False,
        name: str = "",
    ):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.phi = phi
        self.grad_phi = grad_phi
        self.dimension = int(dimension)
        self.noise = noise if noise is not None else NoiseModel()
        self.vectorized = bool(vectorized)
        self.name = name
        self.eval_count = 0
        # One stochastic draw per evaluation, in query order.  Batch draws of
        # size k consume the stream exactly like k scalar draws, so batched
        # and sequential evaluation of the same query sequence are bit-identical.
        self._noise_gen = (
            RngStream(self.noise.seed, stream_id=0).generator()
            if self.noise.kind in ("uniform", "adversarial_sign")
            else None
        )

    def _noise_values(self, X: np.ndarray) -> np.ndarray:
        kind = self.noise.kind
        k = X.shape[0]
        if kind == "none" or self.noise.bound == 0.0:
            return np.zeros(k)
        if kind == "sinusoidal":
            return self.noise.bound * np.sin(self.noise.omega * X.sum(axis=1))
        u = self._noise_gen.random(k)
        if kind == "uniform":
            return self.noise.bound * (2.0 * u - 1.0)
        # adversarial_sign
        return np.where(u < 0.5, self.noise.bound, -self.noise.bound)

    def _phi_values(self, X: np.ndarray) -> np.ndarray:
        if self.vectorized:
            values = np.asarray(self.phi(X), dtype=float)
            if values.shape != X.shape[:1]:
                raise ValueError(f"vectorized phi gave shape {values.shape}, not {X.shape[:1]}")
            return values
        return np.array([float(self.phi(row)) for row in X], dtype=float)

    def evaluate(self, x) -> float:
        """Return one noisy measurement f(x) and count it."""
        x = as_point(x, self.dimension, finite=False)
        return float(self.evaluate_batch(x[None, :])[0])

    def evaluate_batch(self, X) -> np.ndarray:
        """Evaluate f on every row of ``X``, counting one evaluation per row.

        Results are produced in row (index) order, which keeps the noise
        stream aligned with sequential evaluation of the same points.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dimension:
            raise ValueError(
                f"expected an (m, {self.dimension}) batch of points, got shape {X.shape}"
            )
        if not np.isfinite(X).all():
            bad = int(np.argwhere(~np.isfinite(X).all(axis=1))[0, 0])
            raise EvaluationError(f"query point at batch row {bad} is not finite", X[bad])
        values = self._phi_values(X) + self._noise_values(X)
        self.eval_count += X.shape[0]
        if not np.isfinite(values).all():
            bad = int(np.argwhere(~np.isfinite(values))[0, 0])
            raise EvaluationError(
                f"objective returned a non-finite value at batch row {bad}", X[bad]
            )
        return values

    def __repr__(self):
        label = self.name or "phi"
        return (
            f"Oracle({label}, n={self.dimension}, noise={self.noise.kind}, "
            f"evals={self.eval_count})"
        )

