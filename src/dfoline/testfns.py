"""Built-in benchmark functions with analytic gradients and certified constants.

Desk-scale replacements for a large external benchmark set: a separable
sin/cos function with a rank-one quadratic coupling term, a diagonal strongly
convex quadratic, and chained Rosenbrock.  Each carries the constants the
theory consumes (L, and where meaningful mu, L_f, phi_hat, phi_star), certified
on the test box [-10, 10]^n.  The test suite checks every analytic gradient
against central finite differences.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bounds import ProblemConstants
from .core import NoiseModel, Oracle

FUNCTION_CLASSES = ("convex", "strongly_convex", "nonconvex")

#: Half-width of the box on which L and L_f certificates hold.
BOX_HALF_WIDTH = 10.0


@dataclass(frozen=True)
class TestFunction:
    """A smooth benchmark phi with analytic gradient and known constants.

    ``value`` accepts a single point (n,) or a stack (..., n) and reduces over
    the last axis; ``gradient`` takes a single point.
    """

    __test__ = False  # not a pytest class, despite the name

    name: str
    n: int
    value: object
    gradient: object
    constants: ProblemConstants
    kind: str

    def __post_init__(self):
        if self.kind not in FUNCTION_CLASSES:
            raise ValueError(f"unknown function class {self.kind!r}")

    def oracle(self, noise: NoiseModel | None = None, noise_rng=None) -> Oracle:
        """Wrap this function as a (possibly noisy) counting oracle; see
        :class:`~dfoline.core.Oracle` for ``noise_rng``."""
        return Oracle(
            self.value,
            self.n,
            noise,
            grad_phi=self.gradient,
            vectorized=True,
            name=self.name,
            noise_rng=noise_rng,
        )


def synthetic_sin(n: int, M: float, L: float) -> TestFunction:
    """Separable sin/cos pairs plus a rank-one quadratic coupling.

        phi(x) = sum_{i=1}^{n/2} [ M sin(x_{2i-1}) + cos(x_{2i}) ]
                 + ((L - M)/(2n)) (sum_j x_j)^2

    Odd coordinates (1-based) carry the sin terms.  The gradient at the origin
    has norm sqrt(n/2) M exactly.  For M >= 1 the gradient-Lipschitz constant
    is exactly L (diagonal curvature max(M, 1) plus the rank-one term's L - M).
    """
    if n < 2 or n % 2:
        raise ValueError(f"dimension must be even and >= 2, got {n}")
    if not 0 < M < L:
        raise ValueError(f"need 0 < M < L, got M={M}, L={L}")
    coupling = (L - M) / (2.0 * n)

    def value(x):
        x = np.asarray(x, dtype=float)
        odd, even = x[..., 0::2], x[..., 1::2]
        s = np.add.reduce(x, axis=-1)
        return np.add.reduce(M * np.sin(odd) + np.cos(even), axis=-1) + coupling * s * s

    def gradient(x):
        x = np.asarray(x, dtype=float)
        g = np.empty_like(x)
        g[0::2] = M * np.cos(x[0::2])
        g[1::2] = -np.sin(x[1::2])
        return g + 2.0 * coupling * x.sum()

    # Hessian: diag(-M sin, -cos) plus ((L-M)/n) * ones; norms add.
    L_grad = max(M, 1.0) + (L - M)
    # ||grad|| on the box: separable part sqrt(n (M^2 + 1)/2), coupling part
    # ((L-M)/n)|sum x| sqrt(n) <= (L-M) * 10 sqrt(n).
    L_f = np.sqrt(n * (M * M + 1.0) / 2.0) + BOX_HALF_WIDTH * (L - M) * np.sqrt(n)
    consts = ProblemConstants(L=L_grad, L_f=float(L_f), phi_hat=-(n / 2.0) * (M + 1.0))
    return TestFunction(f"sin(n={n},M={M:g},L={L:g})", n, value, gradient, consts, "nonconvex")


def quadratic(n: int, mu: float, L: float) -> TestFunction:
    """phi(x) = 1/2 x^T A x with A = diag(linspace(mu, L, n)).

    Constants are taken from the realized eigenvalues, so they are exact:
    strong convexity mu, smoothness L, minimum 0 at the origin.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not 0 < mu <= L:
        raise ValueError(f"need 0 < mu <= L, got mu={mu}, L={L}")
    diag = np.linspace(mu, L, n)

    def value(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.add.reduce(diag * x * x, axis=-1)

    def gradient(x):
        return diag * np.asarray(x, dtype=float)

    # ||grad phi(x)|| <= L ||x|| <= L * 10 sqrt(n) on the box
    consts = ProblemConstants(
        L=float(diag.max()),
        L_f=float(diag.max()) * BOX_HALF_WIDTH * float(np.sqrt(n)),
        mu=float(diag.min()),
        phi_hat=0.0,
        phi_star=0.0,
    )
    return TestFunction(f"quad(n={n},mu={mu:g},L={L:g})", n, value, gradient, consts, "strongly_convex")


def rosenbrock(n: int) -> TestFunction:
    """Chained Rosenbrock, minimum 0 at the all-ones point.

        phi(x) = sum_{i=1}^{n-1} [ 100 (x_{i+1} - x_i^2)^2 + (1 - x_i)^2 ]

    The supplied L is a Gershgorin bound on the Hessian over the box
    (1200 B^2 + 1200 B + 202 at B = 10); loose but certified.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")

    def value(x):
        x = np.asarray(x, dtype=float)
        head, tail = x[..., :-1], x[..., 1:]
        return np.add.reduce(100.0 * (tail - head * head) ** 2 + (1.0 - head) ** 2, axis=-1)

    def gradient(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros_like(x)
        head, tail = x[:-1], x[1:]
        r = tail - head * head
        g[:-1] += -400.0 * head * r - 2.0 * (1.0 - head)
        g[1:] += 200.0 * r
        return g

    B = BOX_HALF_WIDTH
    L_grad = 1200.0 * B * B + 1200.0 * B + 202.0
    # per-component gradient bound on the box: 400 B (B + B^2) + 2 (1 + B)
    # + 200 (B + B^2), then times sqrt(n) for the norm
    comp = 400.0 * B * (B + B * B) + 2.0 * (1.0 + B) + 200.0 * (B + B * B)
    consts = ProblemConstants(
        L=L_grad, L_f=float(comp * np.sqrt(n)), phi_hat=0.0, phi_star=0.0
    )
    return TestFunction(f"rosenbrock(n={n})", n, value, gradient, consts, "nonconvex")


@functools.cache
def _presets() -> dict[str, TestFunction]:
    """Build every preset once per process."""
    return {
        "sin_n20": synthetic_sin(20, 1.0, 8.0),
        "sin_n100": synthetic_sin(100, 1.0, 8.0),
        "sin_n10": synthetic_sin(10, 2.0, 4.0),
        "quad_n10": quadratic(10, 1.0, 10.0),
        "quad_n20": quadratic(20, 1.0, 100.0),
        "quad_n5": quadratic(5, 2.0, 8.0),
        "rosenbrock_n4": rosenbrock(4),
        "rosenbrock_n10": rosenbrock(10),
    }


def corpus() -> dict[str, TestFunction]:
    """The built-in benchmark instances, keyed by preset name.

    Returns a fresh dict over the shared, frozen instances, so a caller
    cannot change what later calls see.
    """
    return dict(_presets())


def get_function(name: str) -> TestFunction:
    fns = corpus()
    if name not in fns:
        raise KeyError(f"unknown function preset {name!r}; known: {sorted(fns)}")
    return fns[name]
