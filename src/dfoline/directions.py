"""Direction sets u_1..u_N for function-value gradient estimators.

Three kinds: the coordinate basis, i.i.d. standard Gaussian rows, and
orthonormalized Gaussian rows.  All generation is a pure function of
(dimensions, seed), so direction sets are byte-identical across platforms and
across runs.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .core import RngStream, _stream, generators

DIRECTION_KINDS = ("coordinate", "gaussian", "orthonormal")

#: Most direction sets :func:`orthonormal_blocks` draws at once, with one QR.
ORTHONORMAL_BLOCK = 16
#: Most Gaussian floats one block of sets holds (at least one set): 16
#: orthonormal sets up to n = N = 22, and 81 Gaussian sets at n = N = 10.
_BLOCK_FLOATS = 2**13


@dataclass(frozen=True)
class DirectionSet:
    """An N x n matrix whose rows are the sampling directions u_i, and the
    stream that names it: the stream it was drawn from, or in a
    :func:`~dfoline.minimize` run, whose sets are all drawn from the run's
    one generator, iteration k's ``rng.child(k)``.  ligd's redraw comes from
    ``stream.child(1)``.  The oracle rejects the queries of a non-finite Q."""

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


def coordinate_sets(n: int, N: int, streams: Iterable[RngStream],
                    gen: np.random.Generator | None = None) -> Iterator[DirectionSet]:
    """``coordinate_directions(n)`` for each stream, checked to be an
    :class:`~dfoline.core.RngStream`; nothing is drawn (``gen`` is unused),
    and N must be n."""
    if N != n:
        raise ValueError(f"interpolation needs exactly N = n = {n} directions, got {N}")
    for _ in map(_stream, streams):
        yield coordinate_directions(n)


def _normal_blocks(shape: tuple[int, int], streams: Iterable[RngStream],
                   gen: np.random.Generator | None, most) -> Iterator[tuple[list, np.ndarray]]:
    """One standard-normal draw of ``shape`` per stream, in blocks of up to
    ``most`` draws that fit in _BLOCK_FLOATS floats (at least one): yields
    each block's streams and its draws G, (m, *shape).  With ``gen`` None,
    each draw comes from its stream's own generator, seeded in blocks by
    :func:`~dfoline.core.generators`.  Otherwise every draw comes from
    ``gen`` in order, one call per block, with the bits of one call per draw."""
    block = max(1, min(most, _BLOCK_FLOATS // (shape[0] * shape[1])))
    if gen is None:
        streams, seeded = itertools.tee(streams)
        gens = generators(seeded)
    while chunk := list(itertools.islice(streams, block)):
        G = np.empty((len(chunk), *shape))
        if gen is not None:
            gen.standard_normal(out=G)
        else:
            for row, own in zip(G, gens):  # G first: no generator is taken past the block
                own.standard_normal(out=row)
        yield chunk, G


def gaussian_sets(n: int, N: int, streams: Iterable[RngStream],
                  gen: np.random.Generator | None = None) -> Iterator[DirectionSet]:
    """``gaussian_directions(n, N, s)`` for each s in ``streams``, bit for
    bit, from the block-seeded :func:`~dfoline.core.generators`, one set at
    a time.  Given ``gen``, the sets are drawn from it in order instead, as
    many at once as fit in _BLOCK_FLOATS floats, each naming its stream."""
    if n < 1 or N < 1:
        raise ValueError(f"need n >= 1 and N >= 1, got n={n}, N={N}")
    if gen is None:  # a draw per stream gains nothing from a block
        streams, seeded = itertools.tee(streams)
        for stream, own in zip(streams, generators(seeded)):
            yield DirectionSet(own.standard_normal((N, n)), "gaussian", stream)
        return
    for chunk, G in _normal_blocks((N, n), streams, gen, math.inf):
        for stream, Q in zip(chunk, G):
            yield DirectionSet(Q, "gaussian", stream)


def orthonormal_blocks(n: int, N: int, streams: Iterable[RngStream],
                       gen: np.random.Generator | None = None) -> Iterator[DirectionSet]:
    """``orthonormal_directions(n, N, s)`` for each s in ``streams``, bit for
    bit, from the block-seeded :func:`~dfoline.core.generators`; given
    ``gen``, the sets' draws come from it in order instead, each set naming
    its stream.  The draws of ORTHONORMAL_BLOCK sets, or of as many as fit
    in _BLOCK_FLOATS floats (at least one), are stacked and share one QR
    call; sets of a block the caller never reads are discarded."""
    _check_orthonormal(n, N)
    for chunk, G in _normal_blocks((n, N), streams, gen, ORTHONORMAL_BLOCK):
        for stream, Q in zip(chunk, _haar_rows(G)):
            yield DirectionSet(Q, "orthonormal", stream)
