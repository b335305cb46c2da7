"""Checks of the workloads' outputs, computed apart from the program.

The closed forms here (gradients, smoothness constants L and lower bounds
phi_hat of the presets the workloads use) are written from the presets'
definitions, not imported from dfoline, and each sweep record's evaluation
point is rebuilt from its ``seed`` with numpy directly.  The checks are
properties of the methods, never a stored copy of earlier output.

Each check returns a :class:`Verdict`: how many operations the unit attempted
(records, traces or theory checks), how many failed (a ``failed`` status or an
output check that does not hold), and the problems that make the output wrong
as a whole, such as a missing file or a wrong exit code.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: oracle evaluations read from the output files, when they record them
    evals: int | None = None


@dataclass(frozen=True)
class Preset:
    n: int
    gradient: Callable
    #: bound on ||Hessian|| over the box [-h, h]^n, as a function of h
    curvature: Callable
    #: lower bound on phi over all of R^n
    phi_hat: float


def _quadratic(n: int, mu: float, L: float) -> Preset:
    # phi(x) = 1/2 sum_i d_i x_i^2 with d = linspace(mu, L, n)
    d = np.linspace(mu, L, n)
    return Preset(n, lambda x: d * x, lambda h: L, 0.0)


def _sin(n: int, M: float, L: float) -> Preset:
    # phi(x) = sum_pairs [M sin(x_odd) + cos(x_even)] + (L - M)/(2n) (sum x)^2
    c = (L - M) / n

    def gradient(x):
        g = np.empty(n)
        g[0::2] = M * np.cos(x[0::2])
        g[1::2] = -np.sin(x[1::2])
        return g + c * x.sum()

    # Hessian diag(-M sin, -cos) + c 11^T: norms at most max(M, 1) and c n.
    # Each sin/cos pair is at least -(M + 1) and the coupling is at least 0.
    return Preset(n, gradient, lambda h: max(M, 1.0) + c * n, -(n / 2) * (M + 1.0))


def _rosenbrock(n: int) -> Preset:
    # phi(x) = sum_i 100 (x_{i+1} - x_i^2)^2 + (1 - x_i)^2
    def gradient(x):
        head, tail = x[:-1], x[1:]
        r = tail - head * head
        g = np.zeros(n)
        g[:-1] += -400.0 * head * r - 2.0 * (1.0 - head)
        g[1:] += 200.0 * r
        return g

    # Gershgorin on [-h, h]^n: diagonal 1200 x_i^2 - 400 x_{i+1} + 202 and
    # two off-diagonals -400 x_i, -400 x_{i-1}.
    return Preset(n, gradient, lambda h: 1200.0 * h * h + 1200.0 * h + 202.0, 0.0)


PRESETS = {
    "quad_n10": _quadratic(10, 1.0, 10.0),
    "sin_n10": _sin(10, 2.0, 4.0),
    "sin_n20": _sin(20, 1.0, 8.0),
    "sin_n100": _sin(100, 1.0, 8.0),
    "rosenbrock_n10": _rosenbrock(10),
}

#: The sweep draws each evaluation point uniformly from [-X_HALF_WIDTH, X_HALF_WIDTH]^n.
X_HALF_WIDTH = 2.0

#: c1 of the relaxed Armijo test: the line search's documented default, which
#: the optimize config leaves unset.
DEFAULT_C1 = 0.2

VERIFY_CHECKS = (
    "interpolation_error_bound",
    "gsg_variance_domination",
    "gsg_sample_size",
    "gaussian_moment_identities",
    "armijo_decrease_guarantee",
    "noise_bound",
)

_TERMINAL = ("converged", "budget_exhausted", "noise_floor")


def read_rows(data: bytes) -> list[dict]:
    """Rows of a harness CSV: a config-hash comment line, a header, data."""
    lines = data.decode("utf-8").split("\n", 1)
    return list(csv.DictReader(io.StringIO(lines[1] if len(lines) > 1 else "")))


def point_from_seed(seed: int, n: int) -> np.ndarray:
    """A sweep record's evaluation point, from stream 2 of its own seed."""
    ss = np.random.SeedSequence(seed, spawn_key=(2,))
    return np.random.Generator(np.random.PCG64(ss)).uniform(-X_HALF_WIDTH, X_HALF_WIDTH, n)


def _record_holds(row: dict, eps_f: float) -> bool:
    preset = PRESETS[row["function"]]
    n = int(row["n"])
    est = row["estimator"]
    if row["status"] != "ok" or n != preset.n:
        return False
    if int(row["evals"]) != (2 * n if est == "cgsg" else n + 1):
        return False
    if est not in ("liod", "fd"):
        return True
    # ||g - grad phi(x)|| <= sqrt(n) (sigma L / 2 + 2 eps_f / sigma), with L
    # taken over the box the probe points x + sigma u (||u|| = 1) stay in.
    sigma = float(row["sigma"])
    x = point_from_seed(int(row["seed"]), n)
    error = float(row["theta"]) * float(np.linalg.norm(preset.gradient(x)))
    L = preset.curvature(X_HALF_WIDTH + sigma)
    bound = math.sqrt(n) * (sigma * L / 2.0 + 2.0 * eps_f / sigma)
    return error <= bound * (1.0 + 1.0e-9)


def check_sweep(config: dict, files: dict[str, bytes], exit_code: int) -> Verdict:
    expected = (len(config["functions"]) * len(config["estimators"])
                * len(config["sigmas"]) * config["trials"])
    verdict = Verdict(attempted=expected)
    if exit_code != 0:
        verdict.problems.append(f"exit code {exit_code}")
    if "records.csv" not in files:
        verdict.problems.append("no records.csv")
        verdict.failed = expected
        return verdict
    rows = read_rows(files["records.csv"])
    if len(rows) != expected:
        verdict.problems.append(f"{len(rows)} records, expected {expected}")
    eps_f = config["noise"]["bound"]
    thetas = defaultdict(list)
    for row in rows:
        if row["function"] not in PRESETS or not _record_holds(row, eps_f):
            verdict.failed += 1
        elif row["estimator"] in ("liod", "gsg"):
            thetas[row["function"], row["sigma"], row["estimator"]].append(float(row["theta"]))
    # The paper's headline: interpolation on orthonormal directions is more
    # accurate than Gaussian smoothing with the same number of evaluations.
    for fname in config["functions"]:
        for sigma in config["sigmas"]:
            liod = thetas[fname, repr(float(sigma)), "liod"]
            gsg = thetas[fname, repr(float(sigma)), "gsg"]
            if not liod or not gsg or statistics.median(liod) >= statistics.median(gsg):
                verdict.problems.append(
                    f"{fname}, sigma {sigma}: median theta of liod not below gsg")
    verdict.evals = sum(int(r["evals"]) for r in rows)
    return verdict


def _trace_holds(rows: list[dict], preset: Preset, budget: int, eps_f: float,
                 c1: float | None) -> bool:
    if not rows or rows[-1]["status"] not in _TERMINAL:
        return False
    evals = [int(r["evals"]) for r in rows]
    phi = [float(r["phi"]) for r in rows]
    if [int(r["k"]) for r in rows] != list(range(len(rows))):
        return False
    if any(b < a for a, b in zip(evals, evals[1:])) or evals[-1] > budget:
        return False
    if any(r["status"] != "ok" for r in rows[:-1]):
        return False
    if min(phi) < preset.phi_hat - 1.0e-12 * max(1.0, abs(preset.phi_hat)):
        return False
    if c1 is None:
        return True
    # An accepted step passed f_{k+1} <= f_k - c1 alpha ||g||^2 + 2 eps_f, and
    # |f - phi| <= eps_f, so phi falls by the same amount less 4 eps_f.
    for k in range(len(rows) - 1):
        alpha, g_norm = float(rows[k]["alpha"]), float(rows[k]["g_norm"])
        limit = phi[k] - c1 * alpha * g_norm * g_norm + 4.0 * eps_f
        if phi[k + 1] > limit + 1.0e-12 * max(1.0, abs(phi[k])):
            return False
    return True


def check_optimize(config: dict, files: dict[str, bytes], exit_code: int) -> Verdict:
    seeds = config.get("seeds", [0, 1, 2])
    runs = [(f, m, s) for f in config["functions"] for m in config["methods"] for s in seeds]
    verdict = Verdict(attempted=len(runs), evals=0)
    if exit_code != 0:
        verdict.problems.append(f"exit code {exit_code}")
    eps_f = config["noise"]["bound"]
    for fname, method, seed in runs:
        name = f"trace_{fname}__{method['name']}__s{seed}.csv"
        stepper = method["stepper"]
        c1 = stepper.get("c1", DEFAULT_C1) if stepper["type"] == "line_search" else None
        rows = read_rows(files[name]) if name in files else []
        if not _trace_holds(rows, PRESETS[fname], config["budget"], eps_f, c1):
            verdict.failed += 1
        if rows:
            verdict.evals += int(rows[-1]["evals"])
    return verdict


def check_verify(config: dict, files: dict[str, bytes], exit_code: int) -> Verdict:
    names = config.get("checks", VERIFY_CHECKS)
    verdict = Verdict(attempted=len(names))
    try:
        entries = {c["check"]: c for c in json.loads(files["report.json"])["checks"]}
    except (KeyError, ValueError) as exc:
        verdict.problems.append(f"no readable report.json: {exc!r}")
        entries = {}
    for name in names:
        entry = entries.get(name)
        if not (entry is not None and entry["passed"] is True
                and isinstance(entry["margin"], (int, float))
                and math.isfinite(entry["margin"])):
            verdict.failed += 1
    if exit_code != (3 if verdict.failed else 0):
        verdict.problems.append(f"exit code {exit_code} with {verdict.failed} failed checks")
    return verdict
