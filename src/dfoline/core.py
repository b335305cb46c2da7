"""Black-box oracles with bounded noise, evaluation accounting, and seeded RNG streams.

Everything downstream (direction generation, gradient estimation, line search,
experiment harness) sees the objective only through an :class:`Oracle`, which
returns ``f(x) = phi(x) + eps(x)`` where ``phi`` is smooth and the noise term
is hard-bounded: ``|eps(x)| <= eps_f`` for every query, with no further
distributional assumption.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

NOISE_KINDS = ("none", "uniform", "sinusoidal", "adversarial_sign")

#: Default angular frequency for sinusoidal noise.  Fast enough that the
#: oscillation is effectively non-smooth at the sampling radii exercised here.
DEFAULT_SINUSOID_OMEGA = 1.0e3

#: Streams whose seeds :func:`generators` hashes at once.
SEED_BLOCK = 256

#: Most noise values an :class:`Oracle` draws ahead at once.
NOISE_BLOCK = 4096

# the constants of numpy's SeedSequence hash (NEP 19), on 32-bit words
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED


def _consts(const: int, mult: int, steps: int) -> np.ndarray:
    """The constants of ``steps`` hash steps from ``const``, as a uint32
    column: step i xors entry i and multiplies by entry i + 1."""
    consts = itertools.accumulate([mult] * steps, lambda c, m: c * m & _MASK, initial=const)
    return np.array(list(consts), dtype=np.uint32)[:, None]


def _hash(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """The hash steps of ``consts`` on the uint32 ``value``, one per row but
    the last, broadcast against the value's leading axis."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ value >> 16


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """The (m, 4) uint64 PCG64 seeds of m columns (w >= 4, m) of uint32
    entropy words, in numpy's wrapping uint32 arithmetic: the first 4 words
    hashed into the pool, each pool word then mixed into the other three,
    each later word into all four, and the pool hashed out."""
    consts, step = _consts(_INIT_A, _MULT_A, 4 * len(entropy)), 4
    pool = _hash(entropy[:4], consts[:5])
    pairs = [(pool, src, [i for i in range(4) if i != src]) for src in range(4)]
    pairs += [(entropy, src, [0, 1, 2, 3]) for src in range(4, len(entropy))]
    for words, src, dst in pairs:
        h = _hash(words[src], consts[step:step + len(dst) + 1])
        mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * h
        pool[dst], step = mixed ^ mixed >> 16, step + len(dst)
    state = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _consts(_INIT_B, _MULT_B, 8))
    lo, hi = state[0::2].astype(np.uint64), state[1::2].astype(np.uint64)
    return np.ascontiguousarray((lo | hi << 32).T)  # PCG64 reads each row's memory


class _SeedWords:
    """A stream's four PCG64 seed words, standing in for its SeedSequence,
    and the stream, named as a SeedSequence names it."""

    def __init__(self, words: np.ndarray, stream: RngStream):
        self.words = words
        self.entropy, self.spawn_key = stream.seed, (stream.stream_id, *stream.path)

    def generate_state(self, n_words, dtype):
        if (n_words, dtype) != (4, np.uint64):  # PCG64's one request
            raise ValueError("holds PCG64's four uint64 seed words only")
        return self.words


def _stream(rng) -> RngStream:
    """``rng``, checked to be an :class:`RngStream`."""
    if not isinstance(rng, RngStream):
        raise TypeError(f"rng must be an RngStream, got {type(rng)!r}")
    return rng


def generators(streams: Iterable[RngStream]) -> Iterator[np.random.Generator]:
    """``s.generator()`` for each s in ``streams``, with the same bits.  The
    seeds of SEED_BLOCK streams are hashed at once when each seed is below
    2**128 (4 words, as numpy pads it) and each key entry below 2**32, with
    as many entries as the block's first; numpy seeds any other stream, and
    raises on a negative entry.  Each generator is built as it is yielded,
    and any item that is not an RngStream is a TypeError."""
    from numpy.random.bit_generator import ISeedSequence  # not at import

    ISeedSequence.register(_SeedWords)
    Generator, PCG64 = np.random.Generator, np.random.PCG64
    streams = map(_stream, streams)
    while block := list(itertools.islice(streams, SEED_BLOCK)):
        # a seed below 2**128 is its 4 words, each key entry below 2**32 one
        rows = [(s.seed & _MASK, s.seed >> 32 & _MASK, s.seed >> 64 & _MASK, s.seed >> 96,
                 s.stream_id, *s.path) for s in block]
        hashed = [len(row) == len(rows[0]) and 0 <= min(row) and max(row) <= _MASK
                  for row in rows]
        entropy = [row for row, h in zip(rows, hashed) if h]
        words = iter(_seed_words(np.array(entropy, dtype=np.uint32).T) if entropy else ())
        for s, h in zip(block, hashed):
            yield Generator(PCG64(_SeedWords(next(words), s))) if h else s.generator()


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
    so sequences are byte-identical across platforms.  :func:`generators`
    seeds many streams at once, each with the bits numpy gives it alone.
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


def _first_bad_row(A: np.ndarray) -> int | None:
    """The first row of A (a batch, or its values) with an entry that is not
    finite, or None.  A finite sum of squares spares the search of the rows;
    ``np.vdot`` warns of nothing, where a sum warns of inf minus inf."""
    if math.isfinite(np.vdot(A, A)):
        return None
    bad = np.flatnonzero(~np.isfinite(A.reshape(len(A), -1)).all(axis=1))
    return int(bad[0]) if len(bad) else None


class Oracle:
    """Evaluation-counting wrapper around ``f(x) = phi(x) + eps(x)``.

    The optimizer-facing surface is :meth:`evaluate` (and its batched variant);
    each call increments ``eval_count`` by exactly one per point.  The smooth
    part and its analytic gradient, when known, stay reachable through
    :attr:`phi` and :attr:`grad_phi` for instrumentation only -- reading them
    never touches the evaluation counter.  A ``vectorized`` phi maps an
    (m, n) batch to m values; any other shape is a ValueError.
    ``noise_rng``, when given, is a fresh ``RngStream(noise.seed, 0).generator()``
    built elsewhere (say by :func:`generators`); any generator but a PCG64
    whose seed sequence names that stream is a ValueError.  Uniform and
    adversarial_sign noise is drawn ahead, up to NOISE_BLOCK values at once,
    with the values one draw per call gives; the oracle owns its generator.
    A batch's memory order can change phi's last bits: the presets sum each
    row of an F-ordered batch, such as liod's probes, one term at a time.
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
        noise_rng: np.random.Generator | None = None,
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
        if noise_rng is not None:
            bits = noise_rng.bit_generator
            names = (type(bits), getattr(bits.seed_seq, "entropy", None),
                     getattr(bits.seed_seq, "spawn_key", ()))
            if names != (np.random.PCG64, self.noise.seed, (0,)):
                raise ValueError(f"noise_rng is not seeded for RngStream({self.noise.seed}, 0)")
        self._noise_gen = None
        self._ahead, self._used, self._drawn = np.empty(0), 0, 0  # noise values drawn ahead
        if self.noise.kind in ("uniform", "adversarial_sign"):
            self._noise_gen = (noise_rng if noise_rng is not None
                               else RngStream(self.noise.seed, stream_id=0).generator())

    def _noise_values(self, X: np.ndarray) -> np.ndarray:
        kind = self.noise.kind
        k = X.shape[0]
        if kind == "none" or self.noise.bound == 0.0:
            return np.zeros(k)
        if kind == "sinusoidal":
            return self.noise.bound * np.sin(self.noise.omega * X.sum(axis=1))
        if self._used + k > len(self._ahead):
            # one draw of at least k values, doubling the values drawn so far
            # up to NOISE_BLOCK; u drawn in one call or in many has the same bits
            u = self._noise_gen.random(max(k, min(self._drawn, NOISE_BLOCK)))
            self._drawn += len(u)
            if kind == "uniform":
                drawn = self.noise.bound * (2.0 * u - 1.0)
            else:  # adversarial_sign
                drawn = np.where(u < 0.5, self.noise.bound, -self.noise.bound)
            left = self._ahead[self._used:]
            self._ahead = np.concatenate([left, drawn]) if len(left) else drawn
            self._used = 0
        self._used += k
        return self._ahead[self._used - k:self._used]

    def _phi_values(self, X: np.ndarray) -> np.ndarray:
        if self.vectorized:
            values = np.asarray(self.phi(X), dtype=float)
            if values.shape != X.shape[:1]:
                raise ValueError(f"vectorized phi gave shape {values.shape}, not {X.shape[:1]}")
            return values
        return np.array([float(self.phi(row)) for row in X], dtype=float)

    def evaluate(self, x) -> float:
        """Return one noisy measurement f(x) and count it."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"expected a point of dimension {self.dimension}, got shape {x.shape}")
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
        if (bad := _first_bad_row(X)) is not None:
            raise EvaluationError(f"query point at batch row {bad} is not finite", X[bad])
        values = self._phi_values(X) + self._noise_values(X)
        self.eval_count += X.shape[0]
        if (bad := _first_bad_row(values)) is not None:
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

