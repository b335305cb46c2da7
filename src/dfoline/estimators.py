"""Gradient estimators built from oracle values only.

Two families:

* Smoothing: ``gsg`` (forward differences against a shared center value) and
  ``cgsg`` (symmetric differences), usable with any number of directions.
* Linear interpolation: ``interpolation_gradient`` solves sigma * Q g = F with
  exactly N = n directions.  Coordinate rows give the textbook
  forward-difference gradient (FD), orthonormal rows give LIOD, and raw
  Gaussian rows give LIGD via a general solve.

:data:`ESTIMATORS` is the one table of the five estimator kinds the harness
and :func:`dfoline.minimize` accept.  :func:`estimate` draws directions and
runs the estimator for any of them; :func:`direction_sets` gives the sets of
a run's iterations, and :func:`estimate_on` runs the estimator on one.  The
relative-error metric theta = ||g - grad phi|| / ||grad phi|| lives here
too, since every accuracy experiment reports it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .core import DFOError, Oracle, RngStream, as_point
from .directions import (
    DirectionSet,
    coordinate_directions,
    gaussian_directions,
    gaussian_sets,
    orthonormal_blocks,
    orthonormal_directions,
)

# LIGD draws can be numerically poor even though a Gaussian matrix is almost
# surely invertible; past this condition number we redraw once, then fail.
_COND_LIMIT = 1.0e8


class ConditioningError(DFOError):
    """Interpolation directions too ill-conditioned to solve against."""


class UndefinedMetricError(DFOError):
    """Relative error is undefined because the true gradient is zero."""


@dataclass(frozen=True)
class GradientEstimate:
    """A gradient approximation g, finite or a :class:`DFOError`, and the
    f(x) it measured (None unless its kind ``measures_center``)."""

    g: np.ndarray
    f_center: float | None

    def __post_init__(self):
        if not np.isfinite(self.g).all():
            raise DFOError("gradient estimate contains non-finite entries")


def _check_geometry(oracle: Oracle, x, sigma: float, dirs: DirectionSet) -> np.ndarray:
    if sigma <= 0 or not np.isfinite(sigma):
        raise ValueError(f"sampling radius must be positive and finite, got {sigma}")
    x = as_point(x, oracle.dimension, finite=False)
    if dirs.Q.shape[1] != oracle.dimension:
        raise ValueError(
            f"direction dimension {dirs.Q.shape[1]} != oracle dimension {oracle.dimension}"
        )
    return x


def _value_at(oracle: Oracle, x: np.ndarray) -> float:
    """f(x), counted, at an x that :func:`_check_geometry` returned: the
    oracle's batch call on one row, without ``evaluate``'s second check."""
    return float(oracle.evaluate_batch(x[None, :])[0])


def gsg(oracle: Oracle, x, sigma: float, dirs: DirectionSet) -> GradientEstimate:
    """Smoothed-gradient estimate from N forward differences.

        g = (1/N) sum_i [(f(x + sigma u_i) - f(x)) / sigma] u_i

    f(x) is evaluated exactly once and shared across all N differences, so the
    call costs N+1 evaluations.  Note the 1/N: with orthonormal rows this is a
    scaled-down version of the interpolation estimate, not the same object.
    """
    x = _check_geometry(oracle, x, sigma, dirs)
    f0 = _value_at(oracle, x)
    fvals = oracle.evaluate_batch(x[None, :] + sigma * dirs.Q)
    g = gsg_from_values(fvals, f0, sigma, dirs.Q)
    return GradientEstimate(g, f0)


def gsg_from_values(F, f0, sigma: float, Q) -> np.ndarray:
    """The gsg formula on values F (..., N) at x + sigma u_i, u_i the rows of
    Q (..., N, n), and f0 = f(x) broadcast against F.  The stacked product
    gives the same bits per estimate alone or in a batch (einsum does not)."""
    w = (F - f0) / sigma
    return (w[..., None, :] @ Q)[..., 0, :] / Q.shape[-2]


def cgsg(oracle: Oracle, x, sigma: float, dirs: DirectionSet) -> GradientEstimate:
    """Symmetric (central) variant of :func:`gsg`.

        g = (1/(2N)) sum_i [(f(x + sigma u_i) - f(x - sigma u_i)) / sigma] u_i

    Costs 2N evaluations and never queries the center point, so ``f_center``
    is None.  Implemented for empirical comparison; the accuracy and
    complexity bounds in :mod:`dfoline.bounds` cover the one-sided family.
    """
    x = _check_geometry(oracle, x, sigma, dirs)
    N = dirs.Q.shape[0]
    offsets = sigma * dirs.Q
    fvals = oracle.evaluate_batch(np.vstack([x + offsets, x - offsets]))
    g = ((fvals[:N] - fvals[N:]) / sigma) @ dirs.Q / (2.0 * N)
    return GradientEstimate(g, None)


def interpolation_gradient(oracle: Oracle, x, sigma: float, dirs: DirectionSet) -> GradientEstimate:
    """Gradient of the linear model interpolating f at x and the N = n offsets.

    Solves sigma * Q g = F where F_i = f(x + sigma u_i) - f(x).  For
    orthonormal or coordinate rows the inverse is the transpose, so
    g = sum_i (F_i / sigma) u_i; Gaussian rows go through a general solve.
    Reproduces linear functions exactly at zero noise.

    Gaussian direction matrices are condition-checked before any oracle
    evaluation; one automatic redraw is attempted (when the set carries seed
    provenance), after which a :class:`ConditioningError` is raised.
    """
    x = _check_geometry(oracle, x, sigma, dirs)
    n = oracle.dimension
    if dirs.Q.shape[0] != n:
        raise ValueError(
            f"interpolation needs exactly N = n = {n} directions, got {dirs.Q.shape[0]}"
        )
    if dirs.kind == "gaussian":
        cond = np.linalg.cond(dirs.Q)
        if not cond < _COND_LIMIT:
            if dirs.stream is not None:
                dirs = gaussian_directions(n, n, dirs.stream.child(1))
                cond = np.linalg.cond(dirs.Q)
            if not cond < _COND_LIMIT:
                raise ConditioningError(
                    f"direction matrix condition number {cond:.3e} exceeds "
                    f"{_COND_LIMIT:.0e}; redraw the direction set"
                )
    f0 = _value_at(oracle, x)
    F = oracle.evaluate_batch(x[None, :] + sigma * dirs.Q) - f0
    if dirs.kind == "gaussian":
        g = np.linalg.solve(dirs.Q, F / sigma)
    else:
        g = (F / sigma) @ dirs.Q
    return GradientEstimate(g, f0)


def _norm(v: np.ndarray) -> float:
    """||v||, with the bits of np.linalg.norm(v): its formula for a vector."""
    return math.sqrt(v @ v)


def relative_error(g, grad_true) -> float:
    """theta = ||g - grad phi(x)|| / ||grad phi(x)||.

    Raises :class:`UndefinedMetricError` at stationary points of phi; callers
    must record those as skips rather than coercing to 0 or inf.
    """
    g = np.asarray(g, dtype=float)
    grad_true = np.asarray(grad_true, dtype=float)
    if not np.isfinite(grad_true).all():
        raise ValueError("true gradient contains non-finite entries")
    denom = _norm(grad_true)
    if denom == 0.0:
        raise UndefinedMetricError("relative error undefined where the true gradient is zero")
    return _norm(g - grad_true) / denom


@dataclass(frozen=True)
class EstimatorKind:
    """One row of :data:`ESTIMATORS`.

    ``directions`` and ``formula`` name module-level functions of this module,
    looked up at call time, so a wrapper installed on the module (a profiler
    or a tracer) sees every call.  ``interpolates`` kinds need N = n;
    ``adaptive`` kinds have ||Q^-1|| = 1, so their sigma may follow the
    accuracy window; ``measures_center`` kinds spend one of their evaluations
    on f(x) and return it as ``f_center``.
    """

    directions: str
    formula: str
    interpolates: bool
    adaptive: bool
    measures_center: bool

    def evals_per_call(self, N: int) -> int:
        """N offsets plus the center, or N symmetric pairs."""
        return N + 1 if self.measures_center else 2 * N


ESTIMATORS = {
    "gsg": EstimatorKind("gaussian_directions", "gsg", False, False, True),
    "cgsg": EstimatorKind("gaussian_directions", "cgsg", False, False, False),
    "liod": EstimatorKind("orthonormal_directions", "interpolation_gradient", True, True, True),
    "ligd": EstimatorKind("gaussian_directions", "interpolation_gradient", True, False, True),
    "fd": EstimatorKind("coordinate_directions", "interpolation_gradient", True, True, True),
}


def draw_directions(kind: str, n: int, N: int, stream: RngStream) -> DirectionSet:
    """The N directions in dimension n that estimator ``kind`` draws from ``stream``."""
    spec = ESTIMATORS[kind]
    build = globals()[spec.directions]
    return build(n) if spec.directions == "coordinate_directions" else build(n, N, stream)


def direction_sets(kind: str, n: int, N: int,
                   streams: Iterable[RngStream]) -> Iterator[DirectionSet]:
    """``draw_directions(kind, n, N, s)`` for each s in ``streams``, with
    the same bits.  The streams are seeded in blocks
    (:func:`~dfoline.core.generators`), and orthonormal sets share one QR
    call per block (:func:`~dfoline.directions.orthonormal_blocks`)."""
    directions = ESTIMATORS[kind].directions
    if directions == "orthonormal_directions":
        return orthonormal_blocks(n, N, streams)
    if directions == "gaussian_directions":
        return gaussian_sets(n, N, streams)
    return (draw_directions(kind, n, N, s) for s in streams)


def estimate(kind: str, oracle: Oracle, x, sigma: float, N: int, stream) -> GradientEstimate:
    """Draw the N directions of estimator ``kind`` from ``stream`` and estimate at x."""
    return estimate_on(kind, oracle, x, sigma,
                       draw_directions(kind, oracle.dimension, N, stream))


def estimate_on(kind: str, oracle: Oracle, x, sigma: float,
                dirs: DirectionSet) -> GradientEstimate:
    """Estimator ``kind`` at x on the direction set ``dirs``."""
    return globals()[ESTIMATORS[kind].formula](oracle, x, sigma, dirs)
