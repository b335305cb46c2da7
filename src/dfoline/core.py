"""Black-box oracles with bounded noise, evaluation accounting, and seeded RNG streams.

Everything downstream (direction generation, gradient estimation, line search,
experiment harness) sees the objective only through an :class:`Oracle`, which
returns ``f(x) = phi(x) + eps(x)`` where ``phi`` is smooth and the noise term
is hard-bounded: ``|eps(x)| <= eps_f`` for every query, with no further
distributional assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NOISE_KINDS = ("none", "uniform", "sinusoidal", "adversarial_sign")

#: Default angular frequency for sinusoidal noise.  Fast enough that the
#: oscillation is effectively non-smooth at the sampling radii exercised here.
DEFAULT_SINUSOID_OMEGA = 1.0e3


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
    so sequences are byte-identical across platforms.
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


class Oracle:
    """Evaluation-counting wrapper around ``f(x) = phi(x) + eps(x)``.

    The optimizer-facing surface is :meth:`evaluate` (and its batched variant);
    each call increments ``eval_count`` by exactly one per point.  The smooth
    part and its analytic gradient, when known, stay reachable through
    :attr:`phi` and :attr:`grad_phi` for instrumentation only -- reading them
    never touches the evaluation counter.
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
            return np.asarray(self.phi(X), dtype=float)
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

