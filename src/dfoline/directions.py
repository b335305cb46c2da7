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

# Pivot considered degenerate when its post-projection norm falls below this;
# the offending Gaussian row is redrawn (probability ~0, but defined).
_PIVOT_TOL = 1.0e-8

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
    """N <= n mutually orthonormal rows from an orthogonalized Gaussian draw.

    Gram-Schmidt is applied twice per row (classical re-orthogonalization),
    which keeps ||Q Q^T - I||_F below 1e-10 well past n = 10^3.  The result is
    rotation-invariant because the input rows are i.i.d. Gaussian.
    """
    if n < 1 or N < 1:
        raise ValueError(f"need n >= 1 and N >= 1, got n={n}, N={N}")
    if N > n:
        raise ValueError(f"cannot build {N} orthonormal rows in dimension {n}")
    gen, seed, stream = _resolve_stream(rng)
    Q = np.empty((N, n))
    for i in range(N):
        v = gen.standard_normal(n)
        while True:
            w = v
            for _ in range(2):
                w = w - Q[:i].T @ (Q[:i] @ w)
            norm = np.linalg.norm(w)
            if norm >= _PIVOT_TOL:
                break
            v = gen.standard_normal(n)  # degenerate pivot: redraw this row
        Q[i] = w / norm
    ds = DirectionSet(Q, "orthonormal", seed=seed, stream=stream)
    defect = np.linalg.norm(Q @ Q.T - np.eye(N))
    if defect > _ORTHO_TOL:
        raise RuntimeError(f"orthonormalization defect {defect:.3e} exceeds {_ORTHO_TOL:.0e}")
    return ds
