"""Experiment runners: gradient-accuracy sweeps, optimization traces, and
theory-verification suites.

Every record derives a private seed from (root seed, identifying key) with a
keyed hash, so any single record can be reproduced in isolation.  Tasks run
one after another in declared order, in the calling thread.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os

import numpy as np

from ..bounds import (
    LineSearchConstants,
    alpha_bar,
    eta,
    gsg_sample_size,
    gsg_variance_bound,
    interpolation_error_bound,
    moment_identity_check,
)
from ..core import DFOError, NoiseModel, Oracle, RngStream
from ..directions import gaussian_directions, orthonormal_directions
from ..estimators import (
    ESTIMATORS,
    UndefinedMetricError,
    estimate,
    gsg,
    interpolation_gradient,
    relative_error,
)
from ..optimizer import (
    STEPPERS,
    EstimatorConfig,
    LineSearchState,
    backtracking_step,
    minimize,
)
from ..testfns import get_function
from .config import ConfigError, config_hash
from .csvio import (
    ACCURACY_COLUMNS,
    AGGREGATE_COLUMNS,
    SUMMARY_COLUMNS,
    TRACE_COLUMNS,
    record_seed,
    write_csv,
)


def _noise_model(noise_cfg: dict | None, seed: int) -> NoiseModel:
    if noise_cfg is None:
        return NoiseModel()
    kwargs = {"kind": noise_cfg["kind"], "bound": noise_cfg.get("bound", 0.0), "seed": seed}
    if "omega" in noise_cfg:
        kwargs["omega"] = noise_cfg["omega"]
    return NoiseModel(**kwargs)


def _functions(names) -> dict:
    fns = {}
    for name in names:
        try:
            fns[name] = get_function(name)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
    return fns


def run_gradient_accuracy(cfg: dict, out_dir: str) -> dict:
    """Sweep (function, estimator, sigma, N, trial); write records and summaries.

    Emits one row per trial into records.csv plus one row per
    (function, estimator, sigma, N) group into summary.csv with the mean and
    quartiles of log10 theta.  Interpolation estimators are pinned to N = n,
    so direction-count factors other than 1 apply only to gsg/cgsg.  A trial
    whose estimate raises a runtime failure is recorded as "failed", with its
    replay seed and no theta.
    """
    cfg_hash = config_hash(cfg)
    exp_id = cfg.get("experiment_id", cfg_hash[:12])
    fns = _functions(cfg["functions"])
    noise_cfg = cfg.get("noise")
    root = cfg.get("seed", 0)
    eval_point = cfg.get("eval_point", "random")
    n_factors = cfg.get("n_factors", [1])

    rows = []
    for fname, est, sigma, nf in itertools.product(
        cfg["functions"], cfg["estimators"], map(float, cfg["sigmas"]), n_factors
    ):
        if ESTIMATORS[est].interpolates and nf != 1:
            continue
        fn = fns[fname]
        N = nf * fn.n
        for trial in range(cfg["trials"]):
            seed = record_seed(root, exp_id, fname, est, repr(sigma), N, trial)
            oracle = fn.oracle(_noise_model(noise_cfg, seed))
            if eval_point == "origin":
                x = np.zeros(fn.n)
            else:
                x = RngStream(seed, 2).generator().uniform(-2.0, 2.0, fn.n)
            row = {
                "experiment_id": exp_id, "function": fname, "n": fn.n,
                "estimator": est, "method": "", "N": N, "sigma": sigma,
                "trial": trial, "seed": seed, "theta": None, "log10_theta": None,
                "status": "ok",
            }
            try:
                result = estimate(est, oracle, x, sigma, N, RngStream(seed, 1))
                theta = relative_error(result.g, fn.gradient(x))
                row.update(theta=theta, log10_theta=math.log10(theta) if theta > 0 else None)
            except UndefinedMetricError:
                row["status"] = "skipped"
            except DFOError:
                row["status"] = "failed"
            rows.append({**row, "evals": oracle.eval_count})

    groups: dict[tuple, list] = {}
    for row in rows:
        groups.setdefault(
            (row["function"], row["estimator"], row["sigma"], row["N"]), []
        ).append(row)
    summaries = []
    for (fname, est, sigma, N), group in groups.items():
        logs = [r["log10_theta"] for r in group if r["log10_theta"] is not None]
        skipped = sum(1 for r in group if r["status"] == "skipped")
        summary = {
            "experiment_id": exp_id, "function": fname, "n": fns[fname].n,
            "estimator": est, "method": "", "N": N, "sigma": sigma,
            "count": len(logs), "skipped": skipped,
        }
        if logs:
            q1, med, q3 = np.percentile(logs, [25.0, 50.0, 75.0])
            summary.update(
                mean_log10_theta=float(np.mean(logs)),
                q1_log10_theta=float(q1),
                median_log10_theta=float(med),
                q3_log10_theta=float(q3),
            )
        summaries.append(summary)

    os.makedirs(out_dir, exist_ok=True)
    records_path = os.path.join(out_dir, "records.csv")
    summary_path = os.path.join(out_dir, "summary.csv")
    write_csv(records_path, ACCURACY_COLUMNS, rows, cfg_hash)
    write_csv(summary_path, SUMMARY_COLUMNS, summaries, cfg_hash)
    return {
        "records": records_path,
        "summary": summary_path,
        "n_records": len(rows),
        "n_summaries": len(summaries),
    }


def _resolve_x0(choice, n: int, stream: RngStream) -> np.ndarray:
    if isinstance(choice, list):
        return np.asarray(choice, dtype=float)
    if choice == "origin":
        return np.zeros(n)
    if choice == "ones":
        return np.ones(n)
    return stream.generator().uniform(-2.0, 2.0, n)


def _method_configs(method: dict, fn, noise_bound: float, budget: int):
    """The estimator and stepper configs of one method on one function.

    Both are built from the keys the method sets, so every default and range
    is the dataclass's own; the one harness default is a line search that
    tolerates the configured noise bound.  Raises ConfigError naming the
    method when a value is out of range, a key belongs to another stepper
    type, or the budget cannot cover one iteration.
    """
    stepper = dict(method["stepper"])
    kind = stepper.pop("type")
    if kind == "line_search":
        stepper.setdefault("eps_f", noise_bound)
    try:
        est_cfg = EstimatorConfig(
            **method["estimator"],
            constants=dataclasses.replace(fn.constants, eps_f=noise_bound),
        )
        est_cfg.check_budget(fn.n, budget)
        return est_cfg, STEPPERS[kind](**stepper)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"method {method['name']} on {fn.name}: {exc}") from exc


def run_optimization(cfg: dict, out_dir: str) -> dict:
    """One trace file per (function, method, seed), plus a mean/min/max
    envelope per (function, method) aggregated across seeds by iteration.

    Returns the paths written and, keyed by "function/method/s<seed>", each
    trace's status and its stop reason (``trace.detail``, empty when none).
    """
    cfg_hash = config_hash(cfg)
    exp_id = cfg.get("experiment_id", cfg_hash[:12])
    fns = _functions(cfg["functions"])
    noise_cfg = cfg.get("noise")
    noise_bound = (noise_cfg or {}).get("bound", 0.0)
    root = cfg.get("seed", 0)
    seeds = cfg.get("seeds", [0, 1, 2])
    budget = cfg["budget"]
    x0_spec = cfg.get("x0", "random")

    names = [m["name"] for m in cfg["methods"]]
    if len(set(names)) != len(names):
        raise ConfigError(f"method names must be unique, got {names}")
    if isinstance(x0_spec, list):
        for fname, fn in fns.items():
            if len(x0_spec) != fn.n:
                raise ConfigError(f"x0 has dimension {len(x0_spec)}, {fname} needs {fn.n}")
    configs = {
        (fname, method["name"]): _method_configs(method, fn, noise_bound, budget)
        for fname, fn in fns.items()
        for method in cfg["methods"]
    }

    os.makedirs(out_dir, exist_ok=True)
    trace_paths, agg_rows, statuses, details = [], [], {}, {}
    for (fname, mname), (est_cfg, stepper) in configs.items():
        fn = fns[fname]
        traces = []
        for seed in seeds:
            run_seed = record_seed(root, exp_id, fname, mname, seed)
            oracle = fn.oracle(_noise_model(noise_cfg, run_seed))
            x0 = _resolve_x0(x0_spec, fn.n, RngStream(run_seed, 2))
            trace = minimize(oracle, x0, est_cfg, stepper, budget, RngStream(run_seed, 1))
            path = os.path.join(out_dir, f"trace_{fname}__{mname}__s{seed}.csv")
            # each record's fields by name; TRACE_COLUMNS picks the columns
            write_csv(path, TRACE_COLUMNS, [vars(r) for r in trace.records], cfg_hash)
            trace_paths.append(path)
            run = f"{fname}/{mname}/s{seed}"
            statuses[run], details[run] = trace.status, trace.detail
            traces.append(trace)

        for k in range(max(len(t.records) for t in traces)):
            recs = [t.records[k] for t in traces if len(t.records) > k]
            phis = [r.phi for r in recs]
            agg_rows.append({
                "function": fname, "method": mname, "k": k,
                "n_seeds": len(recs),
                "phi_mean": float(np.mean(phis)),
                "phi_min": float(np.min(phis)),
                "phi_max": float(np.max(phis)),
                "grad_norm_true_mean": float(np.mean([r.grad_norm_true for r in recs])),
                "evals_mean": float(np.mean([r.evals for r in recs])),
            })
    agg_path = os.path.join(out_dir, "aggregate.csv")
    write_csv(agg_path, AGGREGATE_COLUMNS, agg_rows, cfg_hash)
    return {"traces": trace_paths, "aggregate": agg_path,
            "statuses": statuses, "details": details}


# ---------------------------------------------------------------------------
# verify-bounds checks


def _check_interpolation_bound(cfg, root) -> dict:
    noise_cfg = cfg.get("noise", {"kind": "uniform", "bound": 1.0e-5})
    actual = noise_cfg.get("bound", 0.0)
    declared = cfg.get("declared_eps_f", actual)
    sigmas = cfg.get("sigmas", [1.0e-2, 1.0e-4])
    trials = cfg.get("trials", 1000)
    fnames = ["sin_n10", "quad_n10"]
    combos = [(f, s) for f in fnames for s in sigmas]
    per = max(1, trials // len(combos))
    worst = math.inf
    witness = None
    count = 0
    for fname, sigma in combos:
        fn = get_function(fname)
        consts = dataclasses.replace(fn.constants, eps_f=declared)
        for t in range(per):
            seed = record_seed(root, "interp", fname, repr(sigma), t)
            oracle = fn.oracle(_noise_model(noise_cfg, seed))
            x = RngStream(seed, 2).generator().uniform(-2.0, 2.0, fn.n)
            dirs = orthonormal_directions(fn.n, fn.n, RngStream(seed, 1))
            est = interpolation_gradient(oracle, x, sigma, dirs)
            err = float(np.linalg.norm(est.g - fn.gradient(x)))
            bound = interpolation_error_bound(sigma, fn.n, consts)
            count += 1
            slack = (bound - err) / bound
            if slack < worst:
                worst = slack
            if err > bound * (1.0 + 1.0e-9) and witness is None:
                witness = {
                    "function": fname, "sigma": sigma, "seed": seed,
                    "error": err, "bound": bound, "declared_eps_f": declared,
                }
    return {
        "check": "interpolation_error_bound",
        "passed": witness is None,
        "margin": worst,
        "details": f"{count} trials; worst relative slack {worst:.3e}",
        "witness": witness,
    }


def _check_variance_domination(cfg, root) -> dict:
    reps = cfg.get("variance_reps", 20000)
    dims = [n for n in cfg.get("dimensions", [2, 3, 5]) if n <= 8]
    worst = math.inf
    witness = None
    details = []
    for n in dims:
        a = RngStream(record_seed(root, "var", n), 3).generator().standard_normal(n)
        a_norm = float(np.linalg.norm(a))
        oracle = Oracle(lambda X, a=a: X @ a, n, vectorized=True)
        for N in (1, 4):
            estimates = np.empty((reps, n))
            base = RngStream(record_seed(root, "var", n, N), 1)
            for r in range(reps):
                dirs = gaussian_directions(n, N, base.child(r))
                estimates[r] = gsg(oracle, np.zeros(n), 0.01, dirs).g
            cov = np.cov(estimates, rowvar=False).reshape(n, n)
            max_eig = float(np.linalg.eigvalsh(cov)[-1])
            kappa = gsg_variance_bound(a_norm, a_norm, n, N)
            ratio = max_eig / kappa
            details.append(f"n={n},N={N}: max_eig/kappa={ratio:.3f}")
            if 1.0 - ratio < worst:
                worst = 1.0 - ratio
            if max_eig > kappa and witness is None:
                witness = {"n": n, "N": N, "max_eig": max_eig, "kappa": kappa}
    return {
        "check": "gsg_variance_domination",
        "passed": witness is None,
        "margin": worst,
        "details": "; ".join(details) or "runs only at dimensions <= 8",
        "witness": witness,
    }


def _check_sample_size(cfg, root) -> dict:
    delta = cfg.get("delta", 0.1)
    theta = cfg.get("theta", 0.25)
    trials = cfg.get("trials", 1000)
    n = min(cfg.get("dimensions", [2, 3, 5]))
    gen = RngStream(record_seed(root, "size", n), 3).generator()
    a = gen.standard_normal(n)
    a /= np.linalg.norm(a)
    oracle = Oracle(lambda X: X @ a, n, vectorized=True)
    r = theta * 1.0
    N = gsg_sample_size(1.0, 1.0, n, delta, r)
    base = RngStream(record_seed(root, "size", n, N), 1)
    violations = 0
    for t in range(trials):
        dirs = gaussian_directions(n, N, base.child(t))
        g = gsg(oracle, np.zeros(n), 0.01, dirs).g
        if np.linalg.norm(g - a) > r:
            violations += 1
    freq = violations / trials
    return {
        "check": "gsg_sample_size",
        "passed": freq <= delta,
        "margin": delta - freq,
        "details": f"n={n}, N={N}: {violations}/{trials} violations (freq {freq:.4f} vs delta {delta})",
        "witness": None if freq <= delta else {"n": n, "N": N, "frequency": freq},
    }


def _check_moment_identities(cfg, root) -> dict:
    samples = cfg.get("samples", 200_000)
    dims = cfg.get("dimensions", [2, 3, 5])
    worst = math.inf
    witness = None
    checked = 0
    for n in dims:
        a_stream = RngStream(record_seed(root, "moments", n), 3)
        a = a_stream.generator().standard_normal(n)
        for identity_id in range(1, 8):
            res = moment_identity_check(
                identity_id, n, a=a, samples=samples,
                rng=RngStream(record_seed(root, "moments", n, identity_id), 1),
            )
            limit = 3.0 * res.se_max
            slack = limit - res.max_deviation
            checked += 1
            if slack < worst:
                worst = slack
            if res.max_deviation > limit and witness is None:
                witness = {
                    "identity": identity_id, "n": n,
                    "max_deviation": res.max_deviation,
                    "tolerance": limit,
                }
    return {
        "check": "gaussian_moment_identities",
        "passed": witness is None,
        "margin": worst,
        "details": f"{checked} identity checks at {samples} samples, 3 SE tolerance",
        "witness": witness,
    }


def _check_armijo_guarantee(cfg, root) -> dict:
    noise_cfg = cfg.get("noise", {"kind": "uniform", "bound": 1.0e-5})
    eps_f = noise_cfg.get("bound", 0.0)
    theta = cfg.get("theta", 0.25)
    trials = min(cfg.get("trials", 1000), 200)
    fn = get_function("quad_n5")
    L = fn.constants.L
    c = LineSearchConstants(c1=0.2, tau=0.3, theta=theta)
    abar = alpha_bar(c, L)
    eta_val = eta(c, L)
    failures = 0
    worst = math.inf
    witness = None
    for t in range(trials):
        seed = record_seed(root, "armijo", t)
        gen = RngStream(seed, 2).generator()
        x = gen.uniform(-2.0, 2.0, fn.n)
        grad = fn.gradient(x)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm == 0.0:
            continue
        # perturb within the norm condition: ||g - grad|| <= theta ||grad||
        e = gen.standard_normal(fn.n)
        e *= theta * grad_norm * gen.random() / np.linalg.norm(e)
        g = grad + e
        oracle = fn.oracle(_noise_model(noise_cfg, seed))
        # any step at or below alpha_bar must pass the relaxed test
        alpha = abar * gen.random()
        f_curr = oracle.evaluate(x)
        f_trial = oracle.evaluate(x - alpha * g)
        lhs = f_trial
        rhs = f_curr - c.c1 * alpha * float(g @ g) + 2.0 * eps_f
        if lhs > rhs:
            failures += 1
            if witness is None:
                witness = {"trial": t, "alpha": alpha, "lhs": lhs, "rhs": rhs}
        # a full backtracking pass certifies at least the eta-rate decrease
        state = LineSearchState(alpha=1.0)
        x_next, _ = backtracking_step(
            oracle, x, g, state, c.c1, c.tau, eps_f, f_curr=f_curr
        )
        decrease_bound = fn.value(x) - eta_val * grad_norm**2 + 4.0 * eps_f
        slack = float(decrease_bound - fn.value(x_next))
        if slack < worst:
            worst = slack
        if slack < 0 and witness is None:
            failures += 1
            witness = {"trial": t, "phi_next": float(fn.value(x_next)),
                       "guarantee": decrease_bound}
    return {
        "check": "armijo_decrease_guarantee",
        "passed": failures == 0 and worst >= 0,
        "margin": worst,
        "details": f"{trials} trials; worst decrease slack {worst:.3e}",
        "witness": witness,
    }


def _check_noise_bound(cfg, root) -> dict:
    noise_cfg = cfg.get("noise", {"kind": "uniform", "bound": 1.0e-5})
    actual = noise_cfg.get("bound", 0.0)
    declared = cfg.get("declared_eps_f", actual)
    trials = cfg.get("trials", 1000)
    fn = get_function("sin_n10")
    seed = record_seed(root, "noise")
    oracle = fn.oracle(_noise_model(noise_cfg, seed))
    X = RngStream(seed, 2).generator().uniform(-2.0, 2.0, (trials, fn.n))
    eps = oracle.evaluate_batch(X) - fn.value(X)
    worst = float(np.max(np.abs(eps)))
    passed = worst <= declared + 1.0e-15
    witness = None
    if not passed:
        idx = int(np.argmax(np.abs(eps)))
        witness = {
            "x": X[idx].tolist(), "abs_eps": worst, "declared_eps_f": declared,
        }
    return {
        "check": "noise_bound",
        "passed": passed,
        "margin": (declared - worst) / declared if declared > 0 else -worst,
        "details": f"max |f - phi| = {worst:.3e} over {trials} points vs declared {declared:.3e}",
        "witness": witness,
    }


_CHECKS = {
    "interpolation_error_bound": _check_interpolation_bound,
    "gsg_variance_domination": _check_variance_domination,
    "gsg_sample_size": _check_sample_size,
    "gaussian_moment_identities": _check_moment_identities,
    "armijo_decrease_guarantee": _check_armijo_guarantee,
    "noise_bound": _check_noise_bound,
}


def run_verify_bounds(cfg: dict, out_dir: str) -> dict:
    """Execute the named theory checks; returns the report written to disk.

    Each check measures its margin (how far inside the bound the worst trial
    landed); a hard-bound violation serializes the witness instance so it can
    be replayed.
    """
    cfg_hash = config_hash(cfg)
    exp_id = cfg.get("experiment_id", cfg_hash[:12])
    root = cfg.get("seed", 0)
    names = cfg.get("checks", list(_CHECKS))
    results = [_CHECKS[name](cfg, root) for name in names]
    for r in results:
        if r["margin"] == math.inf:  # a worst case taken over no trial
            r.update(passed=False, margin=None, details=f"0 trials: {r['details']}")
    report = {
        "experiment_id": exp_id,
        "config_sha256": cfg_hash,
        "all_pass": all(r["passed"] for r in results),
        "checks": results,
    }
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    report["path"] = path
    return report
