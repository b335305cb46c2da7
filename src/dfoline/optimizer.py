"""The iteration x_{k+1} = x_k - alpha_k g(x_k) with three step rules.

The main stepper is a backtracking line search against the relaxed Armijo
condition

    f(x - alpha g) <= f(x) - c1 alpha ||g||^2 + 2 eps_f,

which tolerates bounded noise by construction.  Fixed-step and Adam steppers
are provided for comparison runs.  Every run produces a full
:class:`OptimizationTrace` whose records carry the instrumented quantities
(phi, true gradient norm, per-iteration estimate error) when the oracle
exposes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import NoFeasibleSigmaError, ProblemConstants, sigma_range
from .core import DFOError, Oracle, RngStream, as_point
from .estimators import ESTIMATORS, estimate

GRAD_NORM_TOL = 1.0e-12


class StallError(DFOError):
    """Backtracking hit its floor (or its trial allowance) without acceptance.

    ``reason`` is "alpha_min" when no step above the floor passed the test,
    which is the expected terminal behavior at the noise floor, or "budget"
    when the evaluation allowance ran out mid-search.
    """

    def __init__(self, message: str, *, reason: str, x, g_norm: float,
                 f_curr: float, last_alpha: float, trials: int):
        super().__init__(message)
        self.reason = reason
        self.x = np.asarray(x, dtype=float).copy()
        self.g_norm = g_norm
        self.f_curr = f_curr
        self.last_alpha = last_alpha
        self.trials = trials


@dataclass
class LineSearchState:
    """Mutable per-run line-search state (current step size and counters)."""

    alpha: float = 1.0
    backtracks_this_iter: int = 0
    alpha_min: float = 1.0e-12
    alpha_max: float = 1.0e3

    def __post_init__(self):
        if not 0 < self.alpha_min <= self.alpha <= self.alpha_max:
            raise ValueError(
                f"need 0 < alpha_min <= alpha <= alpha_max, got "
                f"{self.alpha_min}, {self.alpha}, {self.alpha_max}"
            )


@dataclass(frozen=True)
class AdamState:
    """Adam moment accumulators; advanced functionally by :func:`adam_step`."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps_hat: float = 1.0e-8

    @classmethod
    def fresh(cls, n: int, beta1: float = 0.9, beta2: float = 0.999,
              eps_hat: float = 1.0e-8) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), 0, beta1, beta2, eps_hat)


def adam_step(state: AdamState, g, alpha: float) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update; returns (new state, step to add to x)."""
    g = np.asarray(g, dtype=float)
    if g.shape != state.m.shape:
        raise ValueError(f"gradient shape {g.shape} != state shape {state.m.shape}")
    t = state.t + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * g
    v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    step = -alpha * m_hat / (np.sqrt(v_hat) + state.eps_hat)
    return replace(state, m=m, v=v, t=t), step


def armijo_holds(f_curr: float, f_trial: float, alpha: float, g_norm_sq: float,
                 c1: float, eps_f: float) -> bool:
    """Relaxed Armijo test: f_trial <= f_curr - c1 alpha ||g||^2 + 2 eps_f."""
    if alpha <= 0:
        raise ValueError(f"step size must be positive, got {alpha}")
    if g_norm_sq < 0:
        raise ValueError(f"squared norm must be >= 0, got {g_norm_sq}")
    return f_trial <= f_curr - c1 * alpha * g_norm_sq + 2.0 * eps_f


def backtracking_step(
    oracle: Oracle,
    x,
    g,
    state: LineSearchState,
    c1: float,
    tau: float,
    eps_f: float,
    *,
    f_curr: float | None = None,
    max_trials: int | None = None,
) -> tuple[np.ndarray, float]:
    """Shrink alpha by tau until the relaxed Armijo test passes.

    Tries alpha = state.alpha, tau * state.alpha, ... and returns
    (x - alpha g, alpha) for the first acceptance at or above
    ``state.alpha_min``.  Every trial evaluation is counted by the oracle;
    ``f_curr`` may be supplied when f(x) was already measured this iteration.
    Raises :class:`StallError` (never a silent acceptance) when the floor is
    reached, which at positive noise means the iterate sits at the theory's
    noise floor.
    """
    if not 0 < tau < 1:
        raise ValueError(f"tau must lie in (0,1), got {tau}")
    x = as_point(x, oracle.dimension)
    g = np.asarray(g, dtype=float)
    g_norm_sq = float(g @ g)
    if g_norm_sq == 0.0:
        raise ValueError("backtracking needs a nonzero step direction")
    if f_curr is None:
        f_curr = oracle.evaluate(x)
    alpha = state.alpha
    state.backtracks_this_iter = 0
    trials = 0
    while alpha >= state.alpha_min:
        if max_trials is not None and trials >= max_trials:
            raise StallError(
                "evaluation allowance exhausted during backtracking",
                reason="budget", x=x, g_norm=math.sqrt(g_norm_sq),
                f_curr=f_curr, last_alpha=alpha, trials=trials,
            )
        x_trial = x - alpha * g
        f_trial = oracle.evaluate(x_trial)
        trials += 1
        if armijo_holds(f_curr, f_trial, alpha, g_norm_sq, c1, eps_f):
            state.alpha = alpha
            return x_trial, alpha
        alpha *= tau
        state.backtracks_this_iter += 1
    raise StallError(
        f"no step above alpha_min={state.alpha_min:.1e} passed the Armijo test "
        f"after {trials} trials; iterate is at the attainable noise floor",
        reason="alpha_min", x=x, g_norm=math.sqrt(g_norm_sq),
        f_curr=f_curr, last_alpha=alpha / tau if trials else alpha, trials=trials,
    )


@dataclass(frozen=True)
class EstimatorConfig:
    """Which gradient estimator to run inside :func:`minimize`, and how.

    kind: a key of :data:`dfoline.estimators.ESTIMATORS`.
    ``num_directions`` defaults to the problem dimension and must equal it for
    the interpolation kinds.

    ``adaptive=True`` re-chooses sigma each iteration as the midpoint of the
    accuracy window [sigma_lo, sigma_hi] for the target ``theta``, using the
    instrumented true gradient norm; it needs ``constants`` (L, eps_f) and is
    only defined for the kinds whose window has ||Q^-1|| = 1 (liod, fd).
    """

    kind: str
    sigma: float = 0.1
    num_directions: int | None = None
    adaptive: bool = False
    theta: float = 0.25
    constants: ProblemConstants | None = None

    def __post_init__(self):
        if self.kind not in ESTIMATORS:
            raise ValueError(f"unknown estimator kind {self.kind!r}; expected one of {list(ESTIMATORS)}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.adaptive:
            if not ESTIMATORS[self.kind].adaptive:
                adaptive = [k for k, spec in ESTIMATORS.items() if spec.adaptive]
                raise ValueError(f"adaptive sigma is only defined for {adaptive}, not {self.kind}")
            if self.constants is None or self.constants.L is None:
                raise ValueError("adaptive sigma needs ProblemConstants with L set")
            if not 0 < self.theta < 0.5:
                raise ValueError(f"adaptive sigma needs theta in (0, 0.5), got {self.theta}")

    def resolved_directions(self, n: int) -> int:
        N = self.num_directions if self.num_directions is not None else n
        if N < 1:
            raise ValueError(f"need at least one direction, got {N}")
        if ESTIMATORS[self.kind].interpolates and N != n:
            raise ValueError(f"num_directions: {self.kind} requires exactly n={n} directions, got {N}")
        return N

    def evals_per_call(self, n: int) -> int:
        return ESTIMATORS[self.kind].evals_per_call(self.resolved_directions(n))

    def check_budget(self, n: int, budget: int) -> None:
        """Raise ValueError unless ``budget`` covers one estimate plus a step."""
        need = self.evals_per_call(n) + 1
        if budget < need:
            raise ValueError(
                f"budget {budget} cannot cover one estimator call plus a step "
                f"({need} evaluations)"
            )


@dataclass(frozen=True)
class LineSearchConfig:
    c1: float = 0.2
    tau: float = 0.3
    eps_f: float = 0.0
    alpha0: float = 1.0
    alpha_min: float = 1.0e-12
    alpha_max: float = 1.0e3

    def __post_init__(self):
        for name in ("c1", "tau"):
            if not 0 < getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in (0, 1), got {getattr(self, name)}")
        if not self.eps_f >= 0:
            raise ValueError(f"eps_f must be >= 0, got {self.eps_f}")
        if not 0 < self.alpha_min <= self.alpha0 <= self.alpha_max:
            raise ValueError(
                f"need 0 < alpha_min <= alpha0 <= alpha_max, got alpha_min="
                f"{self.alpha_min}, alpha0={self.alpha0}, alpha_max={self.alpha_max}"
            )


@dataclass(frozen=True)
class FixedStepConfig:
    alpha: float = 0.01

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"fixed step alpha must be positive, got {self.alpha}")


@dataclass(frozen=True)
class AdamConfig:
    alpha: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps_hat: float = 1.0e-8

    def __post_init__(self):
        for name in ("alpha", "eps_hat"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)}")


#: Stepper configs by the ``type`` name an experiment config gives them.
STEPPERS = {"line_search": LineSearchConfig, "fixed": FixedStepConfig, "adam": AdamConfig}


@dataclass(frozen=True)
class IterationRecord:
    """One row of a trace: the iterate plus what was measured there.

    ``evals`` is the cumulative oracle count after this iteration's work.
    Fields that were not measured (no instrumentation, or no estimate at the
    terminal point) hold NaN.
    """

    k: int
    x: np.ndarray
    f: float
    phi: float
    grad_norm_true: float
    g_norm: float
    alpha: float
    theta_k: float
    evals: int
    status: str = "ok"


@dataclass
class OptimizationTrace:
    records: list[IterationRecord] = field(default_factory=list)
    status: str = "running"
    detail: str = ""

    @property
    def iterations(self) -> int:
        return len(self.records) - 1

    @property
    def x_final(self) -> np.ndarray:
        return self.records[-1].x

    @property
    def evals_total(self) -> int:
        return self.records[-1].evals if self.records else 0

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


def _instrument(oracle: Oracle, x: np.ndarray, g: np.ndarray | None):
    """(phi, ||grad phi||, theta_k) at x, using uncounted instrumentation."""
    phi = float(oracle.phi(x)) if not oracle.vectorized else float(oracle.phi(x[None, :])[0])
    grad_norm = math.nan
    theta_k = math.nan
    if oracle.grad_phi is not None:
        grad = np.asarray(oracle.grad_phi(x), dtype=float)
        grad_norm = float(np.linalg.norm(grad))
        if g is not None and grad_norm > 0:
            theta_k = float(np.linalg.norm(g - grad) / grad_norm)
    return phi, grad_norm, theta_k


def minimize(
    oracle: Oracle,
    x0,
    estimator: EstimatorConfig,
    stepper: LineSearchConfig | FixedStepConfig | AdamConfig,
    budget: int,
    rng: RngStream | int = 0,
) -> OptimizationTrace:
    """Run the estimate-then-step loop until the budget, a stall, or ||g|| ~ 0.

    A fresh direction set is drawn every iteration from a per-iteration
    sub-stream of ``rng``, so runs are bit-reproducible given (seed, config).
    The trace gains one record per iterate including the final one, and ends
    "converged", "budget_exhausted", "noise_floor", or "failed" (see
    ``trace.detail``).  A :class:`DFOError` raised inside the loop ends the
    run "failed" with the exception text; it is never lost.  A vanishing
    estimate counts as convergence only when sigma can resolve a gradient of
    that size, that is when spacing(|f(x)|) / sigma <= GRAD_NORM_TOL;
    otherwise the differences were lost to rounding and the run has failed.
    """
    x = as_point(x0, oracle.dimension).copy()
    n = oracle.dimension
    N = estimator.resolved_directions(n)
    est_cost = estimator.evals_per_call(n)
    estimator.check_budget(n, budget)
    if not isinstance(rng, RngStream):
        rng = RngStream(int(rng))
    if estimator.adaptive and oracle.grad_phi is None:
        raise ValueError("adaptive sigma needs an oracle with grad_phi instrumentation")

    ls_state = None
    adam_state = None
    if isinstance(stepper, LineSearchConfig):
        ls_state = LineSearchState(
            alpha=stepper.alpha0, alpha_min=stepper.alpha_min, alpha_max=stepper.alpha_max,
        )
    elif isinstance(stepper, AdamConfig):
        adam_state = AdamState.fresh(n, stepper.beta1, stepper.beta2, stepper.eps_hat)
    elif not isinstance(stepper, FixedStepConfig):
        raise TypeError(f"unknown stepper config {type(stepper)!r}")

    trace = OptimizationTrace()
    extra = 1 if isinstance(stepper, (LineSearchConfig,)) else 0
    extra += 0 if ESTIMATORS[estimator.kind].measures_center else 1  # f(x) measured apart
    k = 0

    def terminal(status: str, *, f=math.nan, g_norm=math.nan, theta_k=math.nan,
                 detail: str = ""):
        phi, grad_norm, _ = _instrument(oracle, x, None)
        trace.records.append(IterationRecord(
            k, x.copy(), f, phi, grad_norm, g_norm, math.nan, theta_k,
            oracle.eval_count, status,
        ))
        trace.status = status
        trace.detail = detail

    try:
        while True:
            if oracle.eval_count + est_cost + extra > budget:
                terminal("budget_exhausted")
                return trace

            sigma = estimator.sigma
            if estimator.adaptive:
                grad_norm_here = float(np.linalg.norm(np.asarray(oracle.grad_phi(x), dtype=float)))
                try:
                    lo, hi = sigma_range(estimator.theta, grad_norm_here, n, estimator.constants)
                except NoFeasibleSigmaError as exc:
                    terminal("noise_floor", detail=str(exc))
                    return trace
                sigma = 0.5 * (lo + hi)
                if sigma <= 0:
                    terminal("noise_floor", detail="accuracy window collapsed to zero radius")
                    return trace

            est = estimate(estimator.kind, oracle, x, sigma, N, rng.child(k))
            f_k = est.f_center if est.f_center is not None else oracle.evaluate(x)
            g = est.g
            g_norm = float(np.linalg.norm(g))
            phi_k, grad_norm_k, theta_k = _instrument(oracle, x, g)

            if g_norm <= GRAD_NORM_TOL:
                status = "converged"
                resolution = float(np.spacing(abs(f_k))) / sigma
                if resolution > GRAD_NORM_TOL:
                    status = "failed"
                    trace.detail = (
                        f"sampling radius sigma={sigma:.3e} is lost to rounding at "
                        f"||x||={np.linalg.norm(x):.3e}, f={f_k:.3e}: the estimate "
                        f"vanished but cannot resolve a gradient below {resolution:.3e}"
                    )
                trace.records.append(IterationRecord(
                    k, x.copy(), f_k, phi_k, grad_norm_k, g_norm, math.nan, theta_k,
                    oracle.eval_count, status,
                ))
                trace.status = status
                return trace

            if ls_state is not None:
                allowance = budget - oracle.eval_count
                try:
                    x_next, alpha = backtracking_step(
                        oracle, x, g, ls_state, stepper.c1, stepper.tau, stepper.eps_f,
                        f_curr=f_k, max_trials=allowance,
                    )
                except StallError as exc:
                    status = "budget_exhausted" if exc.reason == "budget" else "noise_floor"
                    trace.records.append(IterationRecord(
                        k, x.copy(), f_k, phi_k, grad_norm_k, g_norm, math.nan, theta_k,
                        oracle.eval_count, status,
                    ))
                    trace.status = status
                    trace.detail = str(exc)
                    return trace
                ls_state.alpha = min(ls_state.alpha_max, alpha / stepper.tau)
            elif adam_state is not None:
                alpha = stepper.alpha
                adam_state, step = adam_step(adam_state, g, alpha)
                x_next = x + step
            else:
                alpha = stepper.alpha
                x_next = x - alpha * g

            trace.records.append(IterationRecord(
                k, x.copy(), f_k, phi_k, grad_norm_k, g_norm, alpha, theta_k,
                oracle.eval_count, "ok",
            ))
            x = x_next
            k += 1
    except DFOError as exc:
        terminal("failed", detail=str(exc))
        return trace
