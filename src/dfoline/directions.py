"""Direction sets u_1..u_N for function-value gradient estimators.

Three kinds: the coordinate basis, i.i.d. standard Gaussian rows, and
orthonormalized Gaussian rows.  All generation is a pure function of
(dimensions, seed), so direction sets are byte-identical across platforms and
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import RngStream

DIRECTION_KINDS = ("coordinate", "gaussian", "orthonormal")


@dataclass(frozen=True)
class DirectionSet:
    """An N x n matrix whose rows are the sampling directions u_i, and the
    stream it was drawn from.  The oracle rejects the queries of a non-finite Q."""

    Q: np.ndarray
    kind: str
    stream: RngStream | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        if Q.ndim != 2:
            raise ValueError(f"direction matrix must be 2-D, got shape {Q.shape}")
        if self.kind not in DIRECTION_KINDS:
            raise ValueError(
                f"unknown direction kind {self.kind!r}; expected one of {DIRECTION_KINDS}"
            )
        object.__setattr__(self, "Q", Q)

    @property
    def count(self) -> int:
        return self.Q.shape[0]

    @property
    def dimension(self) -> int:
        return self.Q.shape[1]


def _generator(rng: RngStream) -> np.random.Generator:
    if not isinstance(rng, RngStream):
        raise TypeError(f"rng must be an RngStream, got {type(rng)!r}")
    return rng.generator()


def coordinate_directions(n: int) -> DirectionSet:
    """The coordinate basis e_1..e_n as rows (so Q = I_n)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return DirectionSet(np.eye(n), "coordinate")


def gaussian_directions(n: int, N: int, rng: RngStream) -> DirectionSet:
    """N i.i.d. standard-normal rows of dimension n, deterministic given rng."""
    if n < 1 or N < 1:
        raise ValueError(f"need n >= 1 and N >= 1, got n={n}, N={N}")
    return DirectionSet(_generator(rng).standard_normal((N, n)), "gaussian", rng)


def orthonormal_directions(n: int, N: int, rng: RngStream) -> DirectionSet:
    """N <= n Haar-distributed orthonormal rows: the columns of Q in the
    Householder QR of an (n, N) Gaussian draw, each times the sign of its
    diagonal entry of R (Mezzadri 2007; without it Q[0, 0] is always < 0)."""
    if n < 1 or N < 1:
        raise ValueError(f"need n >= 1 and N >= 1, got n={n}, N={N}")
    if N > n:
        raise ValueError(f"cannot build {N} orthonormal rows in dimension {n}")
    q, r = np.linalg.qr(_generator(rng).standard_normal((n, N)))
    Q = (q * np.where(np.diag(r) < 0.0, -1.0, 1.0)).T
    return DirectionSet(Q, "orthonormal", rng)
