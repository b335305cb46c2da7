"""The iteration x_{k+1} = x_k - alpha_k g(x_k) with three step rules.

The main stepper is a backtracking line search against the relaxed Armijo
condition

    f(x - alpha g) <= f(x) - c1 alpha ||g||^2 + 2 eps_f,

which tolerates bounded noise by construction.  Fixed-step and Adam steppers
are provided for comparison runs.  Each stepper config's ``start(n)`` returns
the step function of one run, which holds that rule's state.  A run yields
its iterates in blocks (:func:`run_blocks`), which :func:`minimize` joins
into one :class:`OptimizationTrace`, one array per column; the instrumented
columns (phi, true gradient norm, per-iteration estimate error) are measured
when the oracle exposes them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import NoFeasibleSigmaError, ProblemConstants, sigma_range
from .core import DFOError, Oracle, RngStream, as_point
from .estimators import ESTIMATORS, _norm, estimate_on

GRAD_NORM_TOL = 1.0e-12
#: Iterates of one block of run_blocks, instrumented at once; their estimates are freed then.
INSTRUMENT_BLOCK = 256


class StallError(DFOError):
    """Backtracking hit its floor (or its trial allowance) without acceptance.

    ``reason`` is "alpha_min" when no step above the floor passed the test,
    which is the expected terminal behavior at the noise floor, or "budget"
    when the evaluation allowance ran out mid-search.
    """

    def __init__(self, message: str, *, reason: str, trials: int):
        super().__init__(message)
        self.reason = reason
        self.trials = trials


def armijo_holds(f_curr: float, f_trial: float, alpha: float, g_norm_sq: float,
                 c1: float, eps_f: float) -> bool:
    """Relaxed Armijo test: f_trial <= f_curr - c1 alpha ||g||^2 + 2 eps_f."""
    if alpha <= 0:
        raise ValueError(f"step size must be positive, got {alpha}")
    if g_norm_sq < 0:
        raise ValueError(f"squared norm must be >= 0, got {g_norm_sq}")
    return f_trial <= f_curr - c1 * alpha * g_norm_sq + 2.0 * eps_f


def backtracking_step(oracle: Oracle, x, g, alpha: float, c1: float, tau: float, eps_f: float,
                      *, alpha_min: float = 1.0e-12, f_curr: float | None = None,
                      max_trials: int | None = None) -> tuple[np.ndarray, float]:
    """Shrink alpha by tau until the relaxed Armijo test passes.

    Tries alpha, tau * alpha, ... and returns (x - alpha g, alpha) for the
    first acceptance at or above ``alpha_min``.  Every trial evaluation is
    counted by the oracle; ``f_curr`` may be supplied when f(x) was already
    measured this iteration.
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
    trials = 0
    while alpha >= alpha_min:
        if max_trials is not None and trials >= max_trials:
            raise StallError("evaluation allowance exhausted during backtracking",
                             reason="budget", trials=trials)
        x_trial = x - alpha * g
        f_trial = oracle.evaluate(x_trial)
        trials += 1
        if armijo_holds(f_curr, f_trial, alpha, g_norm_sq, c1, eps_f):
            return x_trial, alpha
        alpha *= tau
    raise StallError(f"no step above alpha_min={alpha_min:.1e} passed the Armijo test after "
                     f"{trials} trials; iterate is at the attainable noise floor",
                     reason="alpha_min", trials=trials)


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
    ``sigma`` must be finite and positive and ``theta`` in (0, 0.5) whether
    or not the config is adaptive.
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
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if self.num_directions is not None and self.num_directions < 1:
            raise ValueError(f"num_directions must be >= 1, got {self.num_directions}")
        if not 0 < self.theta < 0.5:
            raise ValueError(f"theta must lie in (0, 0.5), got {self.theta}")
        if self.adaptive:
            if not ESTIMATORS[self.kind].adaptive:
                adaptive = [k for k, spec in ESTIMATORS.items() if spec.adaptive]
                raise ValueError(f"adaptive sigma is only defined for {adaptive}, not {self.kind}")
            if self.constants is None or self.constants.L is None:
                raise ValueError("adaptive sigma needs ProblemConstants with L set")

    def resolved_directions(self, n: int) -> int:
        N = self.num_directions if self.num_directions is not None else n
        if ESTIMATORS[self.kind].interpolates and N != n:
            raise ValueError(f"num_directions: {self.kind} requires exactly n={n} directions, got {N}")
        return N

    def evals_per_call(self, n: int) -> int:
        return ESTIMATORS[self.kind].evals_per_call(self.resolved_directions(n))

    def check_budget(self, n: int, budget: int) -> None:
        """Raise ValueError unless ``budget`` covers one estimate plus a step."""
        need = self.evals_per_call(n) + 1
        if budget < need:
            raise ValueError(f"budget {budget} cannot cover one estimator call plus a step "
                             f"({need} evaluations)")


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
            raise ValueError(f"need 0 < alpha_min <= alpha0 <= alpha_max, got alpha_min="
                             f"{self.alpha_min}, alpha0={self.alpha0}, alpha_max={self.alpha_max}")

    def start(self, n: int):
        """A run's step function: backtracking from alpha0, then from
        min(alpha_max, accepted / tau) after each accepted step."""
        alpha0 = self.alpha0

        def step(oracle, x, g, f_x, allowance):
            nonlocal alpha0
            x_next, alpha = backtracking_step(oracle, x, g, alpha0, self.c1, self.tau, self.eps_f,
                                              alpha_min=self.alpha_min, f_curr=f_x,
                                              max_trials=allowance)
            alpha0 = min(self.alpha_max, alpha / self.tau)
            return x_next, alpha

        return step


@dataclass(frozen=True)
class FixedStepConfig:
    alpha: float = 0.01

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"fixed step alpha must be positive, got {self.alpha}")

    def start(self, n: int):
        """A run's step function: x - alpha g, with no state."""
        return lambda oracle, x, g, f_x, allowance: (x - self.alpha * g, self.alpha)


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

    def start(self, n: int):
        """A run's step function: bias-corrected Adam, its moments m, v and
        step count t starting from zero."""
        m, v, t = np.zeros(n), np.zeros(n), 0

        def step(oracle, x, g, f_x, allowance):
            nonlocal m, v, t
            t += 1
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * v + (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            return x - self.alpha * m_hat / (np.sqrt(v_hat) + self.eps_hat), self.alpha

        return step


#: Stepper configs by the ``type`` name an experiment config gives them.
STEPPERS = {"line_search": LineSearchConfig, "fixed": FixedStepConfig, "adam": AdamConfig}


@dataclass
class OptimizationTrace:
    """A run's iterates k = 0..K, or a block of them, held as one array per
    column: ``x`` (K + 1, n), ``evals`` (int, the cumulative oracle count
    after iterate k's work) and f, phi, grad_norm_true, g_norm, alpha and
    theta_k (float, NaN where not measured: no instrumentation, or no
    estimate or step at the last iterate).  Every iterate but the last is an
    "ok" step; ``status`` and stop reason ``detail`` are the last one's.
    """

    x: np.ndarray
    evals: np.ndarray
    f: np.ndarray
    phi: np.ndarray
    grad_norm_true: np.ndarray
    g_norm: np.ndarray
    alpha: np.ndarray
    theta_k: np.ndarray
    status: str
    detail: str

    @property
    def iterations(self) -> int:
        return len(self.evals) - 1

    @property
    def evals_total(self) -> int:
        return int(self.evals[-1])


def _sq_norms(A: np.ndarray) -> np.ndarray:
    """v @ v for each row v of A, with its bits: a stacked matmul of each
    row with itself takes the path of a 1-d dot (einsum does not)."""
    return (A[:, None, :] @ A[:, :, None])[:, 0, 0]


def _instrument(oracle: Oracle, rows: list) -> list:
    """The array fields of :class:`OptimizationTrace`, in order, of ``rows``,
    each (x, evals, f, g or None, ||g||, alpha), which it empties, with phi,
    ||grad phi|| and theta_k measured uncounted.  A vectorized phi gets one
    C-ordered stack and must treat each row alone."""
    xs, evals, fs, gs, g_norms, alphas = zip(*rows)
    rows.clear()
    X = np.array(xs)
    if oracle.vectorized:
        phis = np.asarray(oracle.phi(X), dtype=float)
    else:
        phis = np.array([float(oracle.phi(x)) for x in xs])
    grad_norms = thetas = np.full(len(xs), math.nan)
    if oracle.grad_phi is not None:
        grads = np.array([np.asarray(oracle.grad_phi(x), dtype=float) for x in xs])
        grad_norms = np.sqrt(_sq_norms(grads))
        G = np.array([np.full(oracle.dimension, math.nan) if g is None else g for g in gs])
        thetas = np.divide(np.sqrt(_sq_norms(G - grads)), grad_norms,
                           out=np.full(len(xs), math.nan), where=grad_norms > 0)
    return [X, np.array(evals), np.array(fs, dtype=float), phis, grad_norms,
            np.array(g_norms, dtype=float), np.array(alphas, dtype=float), thetas]


def run_blocks(oracle: Oracle, x0, estimator: EstimatorConfig,
               stepper: LineSearchConfig | FixedStepConfig | AdamConfig, budget: int,
               rng: RngStream | int = 0):
    """Run the estimate-then-step loop until the budget, a stall, or ||g|| ~ 0,
    and yield its iterates INSTRUMENT_BLOCK at a time as they are
    instrumented, each block an :class:`OptimizationTrace` of the next
    iterates.  Every block but the last is "ok", with no detail; the last
    holds the final iterate, the run's status ("converged",
    "budget_exhausted", "noise_floor", or "failed") and its stop reason.

    Every direction set of the run is drawn in order from one generator of
    ``rng``, so runs are bit-reproducible given (seed, config).  The sets
    depend on nothing else, so they are drawn in blocks (the kind's
    ``ESTIMATORS[kind].sets``), with the bits of one draw per iteration.
    Iteration k's set is named ``rng.child(k)``, and ligd's one redraw of it
    comes from ``rng.child(k).child(1)``, which shifts no later draw.
    A :class:`DFOError` raised inside the loop ends the run "failed" with
    the exception text; an error raised by instrumentation propagates.
    Each block's work ignores floating-point overflow and invalid
    operations: their inf and NaN end the run "failed", and numpy warns of
    nothing.  numpy's error state is a context variable, which a generator
    shares with its caller, so the caller's own holds at each yield.  A
    vanishing estimate counts as convergence only when sigma can resolve a
    gradient of that size, that is when spacing(|f(x)|) / sigma <=
    GRAD_NORM_TOL; otherwise the differences were lost to rounding and the
    run has failed.
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

    if not isinstance(stepper, tuple(STEPPERS.values())):
        raise TypeError(f"unknown stepper config {type(stepper)!r}")
    step = stepper.start(n)
    sets = ESTIMATORS[estimator.kind].sets(n, N, map(rng.child, itertools.count()),
                                           rng.generator())

    extra = 1 if isinstance(stepper, LineSearchConfig) else 0
    extra += 0 if ESTIMATORS[estimator.kind].measures_center else 1  # f(x) measured apart
    rows = []  # (x, evals, f, g, ||g||, alpha) of the iterates to instrument

    def iterate():
        """Run the loop until INSTRUMENT_BLOCK iterates wait in ``rows``
        (status "ok") or the run ends: its status, detail and the last
        iterate's (f, g, ||g||) when they were measured."""
        nonlocal x
        try:
            while len(rows) < INSTRUMENT_BLOCK:
                if oracle.eval_count + est_cost + extra > budget:
                    return "budget_exhausted", "", None

                sigma = estimator.sigma
                if estimator.adaptive:
                    grad_norm_here = _norm(np.asarray(oracle.grad_phi(x), dtype=float))
                    try:
                        lo, hi = sigma_range(estimator.theta, grad_norm_here, n, estimator.constants)
                    except NoFeasibleSigmaError as exc:
                        return "noise_floor", str(exc), None
                    sigma = 0.5 * (lo + hi)
                    if sigma <= 0:
                        return "noise_floor", "accuracy window collapsed to zero radius", None

                est = estimate_on(estimator.kind, oracle, x, sigma, next(sets))
                f_k = est.f_center if est.f_center is not None else oracle.evaluate(x)
                g = est.g
                g_norm = _norm(g)
                measured = (f_k, g, g_norm)

                if g_norm <= GRAD_NORM_TOL:
                    resolution = float(np.spacing(abs(f_k))) / sigma
                    if resolution <= GRAD_NORM_TOL:
                        return "converged", "", measured
                    return "failed", (
                        f"sampling radius sigma={sigma:.3e} is lost to rounding at "
                        f"||x||={np.linalg.norm(x):.3e}, f={f_k:.3e}: the estimate "
                        f"vanished but cannot resolve a gradient below {resolution:.3e}"
                    ), measured

                try:
                    x_next, alpha = step(oracle, x, g, f_k, budget - oracle.eval_count)
                except StallError as exc:
                    status = "budget_exhausted" if exc.reason == "budget" else "noise_floor"
                    return status, str(exc), measured

                rows.append((x, oracle.eval_count, f_k, g, g_norm, alpha))
                x = x_next
            return "ok", "", None
        except DFOError as exc:
            return "failed", str(exc), None

    status = "ok"
    while status == "ok":
        with np.errstate(over="ignore", invalid="ignore"):
            status, detail, measured = iterate()
            if status != "ok":
                f, g, g_norm = measured or (math.nan, None, math.nan)
                rows.append((x, oracle.eval_count, f, g, g_norm, math.nan))
            # outside the loop's try: its errors propagate
            block = OptimizationTrace(*_instrument(oracle, rows), status, detail)
        yield block


def minimize(oracle: Oracle, x0, estimator: EstimatorConfig,
             stepper: LineSearchConfig | FixedStepConfig | AdamConfig, budget: int,
             rng: RngStream | int = 0) -> OptimizationTrace:
    """The blocks of :func:`run_blocks` joined into one trace, which holds
    every iterate including the final one, and the run's status and detail."""
    columns = [[] for _ in range(8)]
    for block in run_blocks(oracle, x0, estimator, stepper, budget, rng):
        for column, values in zip(columns, vars(block).values()):
            column.append(values)
    # one column at a time, so only that column's blocks are held twice
    return OptimizationTrace(*[np.concatenate(columns.pop(0)) for _ in range(len(columns))],
                             block.status, block.detail)
