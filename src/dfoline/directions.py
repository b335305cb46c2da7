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

_ORTHO_TOL = 1.0e-10


@dataclass(frozen=True)
class DirectionSet:
    """An N x n matrix whose rows are the sampling directions u_i."""

    Q: np.ndarray
    kind: str
    seed: int = -1
    stream: RngStream | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        if Q.ndim != 2:
            raise ValueError(f"direction matrix must be 2-D, got shape {Q.shape}")
        if not np.all(np.isfinite(Q)):
            raise ValueError("direction matrix contains non-finite entries")
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


def _resolve_stream(rng) -> tuple[np.random.Generator, int, RngStream | None]:
    """Accept an RngStream, a bare int seed, or an already-built Generator."""
    if isinstance(rng, RngStream):
        return rng.generator(), rng.seed, rng
    if isinstance(rng, (int, np.integer)):
        stream = RngStream(int(rng))
        return stream.generator(), stream.seed, stream
    if isinstance(rng, np.random.Generator):
        return rng, -1, None
    raise TypeError(f"rng must be an RngStream, int seed, or numpy Generator, got {type(rng)!r}")


def coordinate_directions(n: int) -> DirectionSet:
    """The coordinate basis e_1..e_n as rows (so Q = I_n)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return DirectionSet(np.eye(n), "coordinate", seed=-1)


def gaussian_directions(n: int, N: int, rng) -> DirectionSet:
    """N i.i.d. standard-normal rows of dimension n, deterministic given rng."""
    if n < 1 or N < 1:
        raise ValueError(f"need n >= 1 and N >= 1, got n={n}, N={N}")
    gen, seed, stream = _resolve_stream(rng)
    Q = gen.standard_normal((N, n))
    return DirectionSet(Q, "gaussian", seed=seed, stream=stream)


def orthonormal_directions(n: int, N: int, rng) -> DirectionSet:
    """N <= n Haar-distributed orthonormal rows: the columns of Q in the
    Householder QR of an (n, N) Gaussian draw, each times the sign of its
    diagonal entry of R (Mezzadri 2007; without it Q[0, 0] is always < 0)."""
    if n < 1 or N < 1:
        raise ValueError(f"need n >= 1 and N >= 1, got n={n}, N={N}")
    if N > n:
        raise ValueError(f"cannot build {N} orthonormal rows in dimension {n}")
    gen, seed, stream = _resolve_stream(rng)
    q, r = np.linalg.qr(gen.standard_normal((n, N)))
    Q = (q * np.where(np.diag(r) < 0.0, -1.0, 1.0)).T
    defect = np.linalg.norm(Q @ Q.T - np.eye(N))
    if defect > _ORTHO_TOL:
        raise RuntimeError(f"orthonormalization defect {defect:.3e} exceeds {_ORTHO_TOL:.0e}")
    return DirectionSet(Q, "orthonormal", seed=seed, stream=stream)
