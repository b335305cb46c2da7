"""Closed-form theory: step-size and decrease constants, rate certificates,
interpolation accuracy, and smoothed-gradient variance / sample-size bounds.

Every function here is pure arithmetic on problem and line-search constants,
except the Monte Carlo measurements the theory checks compare against them:
:func:`interpolation_error` (the LIOD error the interpolation bound caps),
:func:`gsg_covariance_top` (the gsg covariance spectrum kappa caps) and
:func:`gsg_misses` (the misses the Chebyshev sample size makes rare), plus
:func:`moment_identity_check`, which verifies the Gaussian moment identities
the variance bounds rest on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import DFOError, Oracle, RngStream
from .directions import DirectionSet
from .estimators import gsg_from_values, interpolation_gradient


class InfeasibleConstantsError(DFOError):
    """Line-search constants violate the feasibility condition of the theory."""


class NoFeasibleSigmaError(DFOError):
    """No sampling radius can meet the requested accuracy at this noise level."""


@dataclass(frozen=True)
class ProblemConstants:
    """Known constants of the smooth part phi and the noise level.

    All fields are optional except the noise bound; each bound function
    checks for the constants it actually needs and says which one is missing.
      L        gradient-Lipschitz constant of phi
      L_f      Lipschitz constant of the noisy f itself
      mu       strong-convexity modulus
      D        diameter of the initial level set
      eps_f    hard bound on |f - phi|
      phi_hat  lower bound on phi
      phi_star optimal value of phi
    """

    L: float | None = None
    L_f: float | None = None
    mu: float | None = None
    D: float | None = None
    eps_f: float = 0.0
    phi_hat: float | None = None
    phi_star: float | None = None

    def __post_init__(self):
        for name in ("L", "L_f", "mu", "D", "eps_f"):
            v = getattr(self, name)
            if v is not None and (not math.isfinite(v) or v < 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.mu is not None and self.L is not None and self.mu > self.L:
            raise ValueError(f"mu={self.mu} cannot exceed L={self.L}")

    def require(self, *names: str) -> None:
        for name in names:
            if getattr(self, name) is None:
                raise ValueError(f"this bound needs ProblemConstants.{name}, which is unset")


@dataclass(frozen=True)
class LineSearchConstants:
    """Armijo/backtracking constants plus the gradient accuracy level theta.

    Feasibility requires c1 < (1 - 2 theta)/(1 - theta); otherwise the
    guaranteed step size would be nonpositive and the theory says nothing.
    """

    c1: float
    tau: float
    theta: float = 0.0
    gamma: float = 0.5

    def __post_init__(self):
        if not 0 < self.c1 < 1:
            raise ValueError(f"c1 must lie in (0,1), got {self.c1}")
        if not 0 < self.tau < 1:
            raise ValueError(f"tau must lie in (0,1), got {self.tau}")
        if not 0 <= self.theta < 0.5:
            raise ValueError(f"theta must lie in [0, 0.5), got {self.theta}")
        if not 0 < self.gamma < 1:
            raise ValueError(f"gamma must lie in (0,1), got {self.gamma}")
        limit = (1 - 2 * self.theta) / (1 - self.theta)
        if self.c1 >= limit:
            raise InfeasibleConstantsError(
                f"c1={self.c1} must be below (1-2*theta)/(1-theta)={limit:.6g} "
                f"at theta={self.theta}"
            )


def alpha_bar(c: LineSearchConstants, L: float) -> float:
    """Largest step size guaranteed to pass the relaxed Armijo test.

        alpha_bar = 2((1 - 2 theta) - c1 (1 - theta)) / (L (1 - theta))

    Any alpha <= alpha_bar is accepted whenever the estimate satisfies the
    norm condition ||g - grad phi|| <= theta ||grad phi||.
    """
    if L <= 0 or not math.isfinite(L):
        raise ValueError(f"L must be positive and finite, got {L}")
    num = 2.0 * ((1.0 - 2.0 * c.theta) - c.c1 * (1.0 - c.theta))
    if num <= 0:
        raise InfeasibleConstantsError(
            f"no positive guaranteed step at c1={c.c1}, theta={c.theta}"
        )
    return num / (L * (1.0 - c.theta))


def eta(c: LineSearchConstants, L: float) -> float:
    """Per-iteration decrease coefficient eta = c1 tau alpha_bar (1 - theta)^2.

    Each backtracking iteration reduces phi by at least
    eta ||grad phi||^2 - 4 eps_f.
    """
    return c.c1 * c.tau * alpha_bar(c, L) * (1.0 - c.theta) ** 2


def convex_gap_bound(consts: ProblemConstants, c: LineSearchConstants, k: int) -> float:
    """Optimality-gap certificate after k iterations on a convex problem.

        max( D^2 / (k (1-gamma) eta),  2 D sqrt(eps_f) / sqrt(gamma eta) + 4 eps_f )

    The first branch is the sublinear convergence term, the second the noise
    floor the iterates cannot descend below.
    """
    consts.require("L", "D")
    if k < 1:
        raise ValueError(f"iteration count must be >= 1, got {k}")
    e = eta(c, consts.L)
    rate = consts.D**2 / (k * (1.0 - c.gamma) * e)
    floor = 2.0 * consts.D * math.sqrt(consts.eps_f) / math.sqrt(c.gamma * e) + 4.0 * consts.eps_f
    return max(rate, floor)


def strongly_convex_certificate(
    consts: ProblemConstants, c: LineSearchConstants, k: int, gap0: float
) -> tuple[float, float]:
    """Linear-rate certificate (rho, bound) for strongly convex phi.

    rho = 1 - 2 mu c1 tau alpha_bar (1 - theta)^2 and

        phi(x_k) - phi* <= rho^k (gap0 - 4 eps_f / (1 - rho)) + 4 eps_f / (1 - rho).

    The certificate is meaningful only for rho in (0, 1); anything else means
    the constants are outside the regime the guarantee covers.
    """
    consts.require("L", "mu")
    if k < 0:
        raise ValueError(f"iteration count must be >= 0, got {k}")
    if gap0 < 0:
        raise ValueError(f"initial gap must be >= 0, got {gap0}")
    rho = 1.0 - 2.0 * consts.mu * eta(c, consts.L)
    if not 0.0 < rho < 1.0:
        raise InfeasibleConstantsError(
            f"contraction factor rho={rho:.6g} outside (0,1); certificate does not apply"
        )
    floor = 4.0 * consts.eps_f / (1.0 - rho)
    return rho, rho**k * (gap0 - floor) + floor


def nonconvex_avg_bound(
    consts: ProblemConstants, c: LineSearchConstants, T: int, phi0: float
) -> float:
    """Bound on the average squared gradient norm over the first T iterations.

        (1/T) sum ||grad phi(x_k)||^2 <= (phi0 - phi_hat) / (eta T) + 4 eps_f / eta
    """
    consts.require("L", "phi_hat")
    if T < 1:
        raise ValueError(f"horizon must be >= 1, got {T}")
    e = eta(c, consts.L)
    return (phi0 - consts.phi_hat) / (e * T) + 4.0 * consts.eps_f / e


def interpolation_error_bound(
    sigma: float, n: int, consts: ProblemConstants, Qinv_norm: float = 1.0
) -> float:
    """Worst-case ||g - grad phi|| for the linear-interpolation estimators.

        ||Q^{-1}|| sqrt(n) (sigma L / 2 + 2 eps_f / sigma)

    Qinv_norm is 1 for orthonormal (and coordinate) direction rows.  The two
    terms trade off: curvature error grows with sigma, noise error with
    1/sigma, minimized at sigma = 2 sqrt(eps_f / L).
    """
    consts.require("L")
    if sigma <= 0 or not math.isfinite(sigma):
        raise ValueError(f"sampling radius must be positive and finite, got {sigma}")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if Qinv_norm < 1.0:
        raise ValueError(f"||Q^-1|| cannot be below 1 for unit-norm rows, got {Qinv_norm}")
    root_n = math.sqrt(n)
    return Qinv_norm * root_n * (sigma * consts.L / 2.0 + 2.0 * consts.eps_f / sigma)


def sigma_range(
    theta: float, grad_norm: float, n: int, consts: ProblemConstants
) -> tuple[float, float]:
    """Interval of sampling radii achieving ||g - grad phi|| <= theta ||grad phi||.

    Endpoints are the roots of the interpolation error bound set equal to
    theta * grad_norm (with ||Q^-1|| = 1):

        [theta g +- sqrt(theta^2 g^2 - 4 L n eps_f)] / (sqrt(n) L)

    Empty whenever theta * grad_norm < 2 sqrt(L n eps_f): the gradient is too
    small relative to the noise for any radius to give the requested accuracy.
    With eps_f = 0 the lower endpoint is 0 and must be read exclusively.
    """
    consts.require("L")
    if grad_norm < 0:
        raise ValueError(f"gradient norm must be >= 0, got {grad_norm}")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if consts.L <= 0:
        raise ValueError("sigma_range needs L > 0")
    tg = theta * grad_norm
    disc = tg * tg - 4.0 * consts.L * n * consts.eps_f
    if disc < 0:
        raise NoFeasibleSigmaError(
            f"no feasible radius: need theta*||grad phi|| >= 2 sqrt(L n eps_f) = "
            f"{2.0 * math.sqrt(consts.L * n * consts.eps_f):.6g}, got {tg:.6g}"
        )
    root = math.sqrt(disc)
    denom = math.sqrt(n) * consts.L
    return (tg - root) / denom, (tg + root) / denom


def gsg_variance_bound(grad_norm: float, L_f: float, n: int, N: int) -> float:
    """Upper bound kappa on the largest eigenvalue of the GSG covariance.

        kappa = (8 g^2 + n(n+2)(n+4) L_f^2 + 8 n(n+2) L_f^2 + 16 n L_f^2) / (4N)

    (derivation-consistent form; see the decrease of each term under N.)
    Halves exactly when N doubles.
    """
    if N < 1:
        raise ValueError(f"sample count must be >= 1, got {N}")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if grad_norm < 0 or L_f < 0:
        raise ValueError("grad_norm and L_f must be >= 0")
    Lf2 = L_f * L_f
    num = (
        8.0 * grad_norm**2
        + n * (n + 2) * (n + 4) * Lf2
        + 8.0 * n * (n + 2) * Lf2
        + 16.0 * n * Lf2
    )
    return num / (4.0 * N)


def gsg_sample_size(grad_norm: float, L_f: float, n: int, delta: float, r: float) -> int:
    """Directions needed so that ||g - E g|| <= r with probability >= 1 - delta.

        N = ceil( 2 n g^2 / (delta r^2)
                  + (L_f^2 n(n+2)(n+4) + 8 n(n+2) L_f^2 + 16 n L_f^2) / (4 delta r^2) )

    Chebyshev on the variance bound; never below 1.  In the regime where the
    gradient term dominates and r = theta * g this collapses to about
    2 n / (delta theta^2).
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    if r <= 0:
        raise ValueError(f"accuracy radius must be positive, got {r}")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    Lf2 = L_f * L_f
    dr2 = delta * r * r
    value = 2.0 * n * grad_norm**2 / dr2 + (
        Lf2 * n * (n + 2) * (n + 4) + 8.0 * n * (n + 2) * Lf2 + 16.0 * n * Lf2
    ) / (4.0 * dr2)
    if not math.isfinite(value):
        raise ValueError(f"the sample size overflows at delta r^2 = {dr2:.3g}")
    return max(1, math.ceil(value))


def gaussian_smoothing_constants(sigma: float, L_f: float, n: int) -> tuple[float, float]:
    """Constants of the Gaussian-smoothed surrogate phi_sigma.

    Viewing the smoothed function as the target, the original f plays the role
    of a noisy oracle for it with

        eps_f = sigma sqrt(n) L_f    and    L = sqrt(n) L_f / sigma.

    Their product n L_f^2 is independent of sigma.
    """
    if sigma <= 0 or not math.isfinite(sigma):
        raise ValueError(f"smoothing radius must be positive and finite, got {sigma}")
    if L_f < 0:
        raise ValueError(f"L_f must be >= 0, got {L_f}")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    root_n = math.sqrt(n)
    return sigma * root_n * L_f, root_n * L_f / sigma


# ---------------------------------------------------------------------------
# Monte Carlo measurements of the quantities the bounds above cap


def interpolation_error(oracle: Oracle, x, sigma: float, dirs: DirectionSet) -> float:
    """||g - grad phi(x)|| of the interpolation estimate g at x on the n
    directions ``dirs``, the quantity :func:`interpolation_error_bound` caps
    when they are orthonormal (LIOD).

    A caller that holds a stream passes ``orthonormal_directions(n, n,
    stream)``; the verify-bounds check draws its sets in blocks
    (``ESTIMATORS["liod"].sets``), with the same bits.  grad phi comes from
    ``oracle.grad_phi``.  Where the squared entries overflow (an entry past
    about 1.3e154), the norm is taken of the entries scaled by the largest of
    them.
    """
    est = interpolation_gradient(oracle, x, sigma, dirs)
    err = est.g - oracle.grad_phi(x)
    norm = float(np.linalg.norm(err))
    if math.isinf(norm):
        scale = float(np.max(np.abs(err)))
        if math.isfinite(scale):
            norm = scale * float(np.linalg.norm(err / scale))
    return norm


#: Floats in one chunk of Monte Carlo directions (0.5 MB); a wider rep is drawn alone.
_CHUNK_FLOATS = 2**16


def _linear_gsg(a: np.ndarray, N: int, base: RngStream, reps: int, sigma: float):
    """Yield (rows, estimates): ``reps`` gsg estimates of the gradient a of
    phi = a^T x at 0, their (reps, N, n) directions drawn in order from
    ``base`` in chunks of whole reps.  Each chunk makes two oracle calls, the
    centers and the offsets, so each estimate still costs N+1 evaluations."""
    n = a.size
    oracle = Oracle(lambda X: X @ a, n, vectorized=True)
    gen = base.generator()
    per_chunk = max(1, _CHUNK_FLOATS // (N * n))
    for start in range(0, reps, per_chunk):
        m = min(per_chunk, reps - start)
        U = gen.standard_normal((m, N, n))
        f0 = oracle.evaluate_batch(np.zeros((m, n)))
        F = oracle.evaluate_batch((sigma * U).reshape(m * N, n)).reshape(m, N)
        yield slice(start, start + m), gsg_from_values(F, f0[:, None], sigma, U)


def gsg_covariance_top(a, N: int, base: RngStream, reps: int, sigma: float = 0.01) -> float:
    """Top eigenvalue of the sample covariance of gsg on phi = a^T x at 0,
    the quantity :func:`gsg_variance_bound` caps (with g = L_f = ||a||).

    The reps x N directions are drawn in order from ``base``.
    """
    a = np.asarray(a, dtype=float)
    estimates = np.empty((reps, a.size))
    for rows, g in _linear_gsg(a, N, base, reps, sigma):
        estimates[rows] = g
    cov = np.cov(estimates, rowvar=False).reshape(a.size, a.size)
    return float(np.linalg.eigvalsh(cov)[-1])


def gsg_misses(a, N: int, r: float, base: RngStream, trials: int, sigma: float = 0.01) -> int:
    """How many of ``trials`` gsg estimates of the gradient a of phi = a^T x
    at 0, their directions drawn in order from ``base``, miss it by more
    than r: the event :func:`gsg_sample_size` makes rarer than delta."""
    a = np.asarray(a, dtype=float)
    return sum(int(np.count_nonzero(np.linalg.norm(g - a, axis=1) > r))
               for _, g in _linear_gsg(a, N, base, trials, sigma))


@dataclass(frozen=True)
class MomentCheckResult:
    """Monte Carlo moment estimate vs closed form.

    ``se_max`` is the scalar tolerance unit sqrt(max-entry second moment /
    samples), conservative since second moment >= variance.
    """

    identity_id: int
    empirical: np.ndarray | float
    exact: np.ndarray | float
    max_deviation: float
    se_max: float
    samples: int

    @property
    def tolerance(self) -> float:
        """The pass threshold: 3 standard-error units."""
        return 3.0 * self.se_max

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


@dataclass(frozen=True)
class MomentIdentity:
    """E[h(u)] = ``exact(n, a)`` for u ~ N(0, I_n).  ``integrand(U, a)`` gives
    one value per row of U: h(u) for a ``scalar`` identity, else the weight w
    in h(u) = w u u^T.  ``needs_a`` identities involve the fixed vector a."""

    statement: str
    integrand: Callable
    exact: Callable
    needs_a: bool = False
    scalar: bool = False


def _sq_norms(U):
    return np.sum(U * U, axis=1)


#: identity_id -> identity, in the order the variance proof uses them.
MOMENT_IDENTITIES = {
    1: MomentIdentity("E[u u^T] = I", lambda U, a: np.ones(len(U)), lambda n, a: np.eye(n)),
    2: MomentIdentity("E[(u^T u) u u^T] = (n+2) I", lambda U, a: _sq_norms(U),
                      lambda n, a: (n + 2.0) * np.eye(n)),
    3: MomentIdentity("E[(a^T u)^2 u u^T] = (a^T a) I + 2 a a^T", lambda U, a: (U @ a) ** 2,
                      lambda n, a: float(a @ a) * np.eye(n) + 2.0 * np.outer(a, a), True),
    4: MomentIdentity("E[(a^T u)(u^T u) u u^T] = 0", lambda U, a: (U @ a) * _sq_norms(U),
                      lambda n, a: np.zeros((n, n)), True),
    5: MomentIdentity("E[(u^T u)^2 u u^T] = (n+2)(n+4) I", lambda U, a: _sq_norms(U) ** 2,
                      lambda n, a: (n + 2.0) * (n + 4.0) * np.eye(n)),
    6: MomentIdentity("E[(a^T u) ||u||^3] = 0", lambda U, a: (U @ a) * _sq_norms(U) ** 1.5,
                      lambda n, a: 0.0, True, True),
    # Sum over i of E[(u^T u)^3 u_i^2] is the fourth moment of a chi^2_n
    # variable, n(n+2)(n+4)(n+6), so each diagonal entry is the product of
    # the last three factors.
    7: MomentIdentity("E[(u^T u)^3 u u^T] = (n+2)(n+4)(n+6) I", lambda U, a: _sq_norms(U) ** 3,
                      lambda n, a: (n + 2.0) * (n + 4.0) * (n + 6.0) * np.eye(n)),
}


#: Samples that :func:`moment_identity_check` draws at once, as one (chunk, n) array.
MOMENT_CHUNK = 50_000


def moment_identity_check(
    identity_id: int,
    n: int,
    a=None,
    samples: int = 10_000,
    rng: RngStream | int = 0,
) -> MomentCheckResult:
    """Monte Carlo check of one Gaussian moment identity.

    Draws u ~ N(0, I_n) in fixed-size chunks (fixed-order reduction, so the
    result is deterministic given rng) and accumulates the entrywise mean
    and second moment of the integrand.  Returns the empirical moment, the
    closed form and the largest entrywise deviation; ``passed`` applies the
    CLT tolerance.
    """
    identity = MOMENT_IDENTITIES.get(identity_id)
    if identity is None:
        raise ValueError(
            f"unknown identity id {identity_id}; known ids are {sorted(MOMENT_IDENTITIES)}"
        )
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if samples < 10_000:
        raise ValueError(f"need at least 10^4 samples for a meaningful check, got {samples}")
    if identity.needs_a:
        if a is None:
            raise ValueError(f"identity {identity_id} needs the fixed vector a")
        a = np.asarray(a, dtype=float)
        if a.shape != (n,):
            raise ValueError(f"a must have shape ({n},), got {a.shape}")

    gen = (rng if isinstance(rng, RngStream) else RngStream(int(rng))).generator()

    shape = () if identity.scalar else (n, n)
    total = np.zeros(shape)
    total_sq = np.zeros(shape)
    remaining = samples
    while remaining > 0:
        m = min(MOMENT_CHUNK, remaining)
        U = gen.standard_normal((m, n))
        w = identity.integrand(U, a)
        if identity.scalar:
            total += w.sum()
            total_sq += (w * w).sum()
        else:
            # sum_k w_k u_k u_k^T and its entrywise square, without an
            # (m, n, n) intermediate
            total += np.einsum("k,ki,kj->ij", w, U, U)
            total_sq += np.einsum("k,ki,kj->ij", w * w, U * U, U * U)
        remaining -= m

    empirical = total / samples
    second_moment = total_sq / samples
    se_max = float(np.sqrt(np.max(second_moment) / samples))
    exact = identity.exact(n, a)
    max_dev = float(np.max(np.abs(empirical - exact)))
    if identity.scalar:
        empirical = float(empirical)
    return MomentCheckResult(identity_id, empirical, exact, max_dev, se_max, samples)
