"""Direction sets u_1..u_N for function-value gradient estimators.

Three kinds: the coordinate basis, i.i.d. standard Gaussian rows, and
orthonormalized Gaussian rows.  All generation is a pure function of
(dimensions, seed), so direction sets are byte-identical across platforms and
across runs.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .core import RngStream, _stream, generators

DIRECTION_KINDS = ("coordinate", "gaussian", "orthonormal")

#: Direction sets :func:`orthonormal_blocks` draws at once, with one QR.
ORTHONORMAL_BLOCK = 16
#: Most Gaussian floats one such block stacks: 16 sets up to n = N = 22.
_BLOCK_FLOATS = 2**13


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


def coordinate_directions(n: int) -> DirectionSet:
    """The coordinate basis e_1..e_n as rows (so Q = I_n)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return DirectionSet(np.eye(n), "coordinate")


def gaussian_directions(n: int, N: int, rng: RngStream) -> DirectionSet:
    """N i.i.d. standard-normal rows of dimension n, deterministic given rng."""
    if n < 1 or N < 1:
        raise ValueError(f"need n >= 1 and N >= 1, got n={n}, N={N}")
    return DirectionSet(_stream(rng).generator().standard_normal((N, n)), "gaussian", rng)


def _check_orthonormal(n: int, N: int) -> None:
    if n < 1 or N < 1:
        raise ValueError(f"need n >= 1 and N >= 1, got n={n}, N={N}")
    if N > n:
        raise ValueError(f"cannot build {N} orthonormal rows in dimension {n}")


def _haar_rows(G: np.ndarray) -> np.ndarray:
    """The N orthonormal rows of each (n, N) Gaussian draw in G (..., n, N):
    the columns of Q in its Householder QR, each times the sign of its
    diagonal entry of R (Mezzadri 2007; without it Q[0, 0] is always < 0).
    Each set is a transposed view of its column-scaled Q, and has the same
    bits whether G holds one draw or a stack of them."""
    q, r = np.linalg.qr(G)
    q *= np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)[..., None, :]
    return np.swapaxes(q, -1, -2)


def orthonormal_directions(n: int, N: int, rng: RngStream) -> DirectionSet:
    """N <= n Haar-distributed orthonormal rows from an (n, N) Gaussian draw."""
    _check_orthonormal(n, N)
    G = _stream(rng).generator().standard_normal((n, N))
    return DirectionSet(_haar_rows(G), "orthonormal", rng)


def coordinate_sets(n: int, N: int, streams: Iterable[RngStream]) -> Iterator[DirectionSet]:
    """``coordinate_directions(n)`` for each stream, checked to be an
    :class:`~dfoline.core.RngStream`; nothing is drawn, and N must be n."""
    if N != n:
        raise ValueError(f"interpolation needs exactly N = n = {n} directions, got {N}")
    for _ in map(_stream, streams):
        yield coordinate_directions(n)


def gaussian_sets(n: int, N: int, streams: Iterable[RngStream]) -> Iterator[DirectionSet]:
    """``gaussian_directions(n, N, s)`` for each s in ``streams``, bit for
    bit, from the block-seeded :func:`~dfoline.core.generators`."""
    if n < 1 or N < 1:
        raise ValueError(f"need n >= 1 and N >= 1, got n={n}, N={N}")
    streams, seeded = itertools.tee(streams)
    for stream, gen in zip(streams, generators(seeded)):
        yield DirectionSet(gen.standard_normal((N, n)), "gaussian", stream)


def orthonormal_blocks(n: int, N: int, streams: Iterable[RngStream]) -> Iterator[DirectionSet]:
    """``orthonormal_directions(n, N, s)`` for each s in ``streams``, bit for
    bit, from the block-seeded :func:`~dfoline.core.generators`.  The draws
    of ORTHONORMAL_BLOCK sets, or of as many as fit in _BLOCK_FLOATS floats
    (at least one), are stacked and share one QR call; sets of a block the
    caller never reads are discarded."""
    _check_orthonormal(n, N)
    block = max(1, min(ORTHONORMAL_BLOCK, _BLOCK_FLOATS // (n * N)))
    streams, seeded = itertools.tee(streams)
    gens = generators(seeded)
    while draws := [gen.standard_normal((n, N)) for gen in itertools.islice(gens, block)]:
        for Q, stream in zip(_haar_rows(np.stack(draws)), streams):
            yield DirectionSet(Q, "orthonormal", stream)
