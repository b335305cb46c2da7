"""Experiment runners: gradient-accuracy sweeps, optimization traces, and
theory-verification suites.

Every record derives a private seed from (root seed, identifying key) with a
keyed hash, so any single record can be reproduced in isolation.  Tasks run
one after another in declared order, in the calling thread.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import itertools
import json
import math
import os
import tempfile

import numpy as np

from ..bounds import (
    MOMENT_IDENTITIES,
    LineSearchConstants,
    alpha_bar,
    eta,
    gsg_covariance_top,
    gsg_misses,
    gsg_sample_size,
    gsg_variance_bound,
    interpolation_error,
    interpolation_error_bound,
    moment_identity_check,
)
from ..core import DFOError, NoiseModel, RngStream, generators
from ..estimators import ESTIMATORS, UndefinedMetricError, estimate_on, relative_error
from ..optimizer import STEPPERS, EstimatorConfig, backtracking_step, minimize
from ..testfns import get_function
from .config import ConfigError, config_hash, with_defaults
from .csvio import (
    ACCURACY_COLUMNS,
    AGGREGATE_COLUMNS,
    ROW_BLOCK,
    SUMMARY_COLUMNS,
    csv_file,
    record_seed,
    write_csv,
    write_trace,
)


@contextlib.contextmanager
def _config_errors(where: str):
    """Re-raise a ValueError or TypeError from building a config object as
    a ConfigError that names ``where``."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _noise_model(cfg: dict) -> NoiseModel:
    """The run's noise model at seed 0; each record replaces the seed."""
    with _config_errors("noise"):
        return NoiseModel(**cfg["noise"])


def _functions(names) -> dict:
    fns = {}
    for name in names:
        try:
            fns[name] = get_function(name)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
    return fns


def _records(fn, noise: NoiseModel, seeds, kind=None, N=0):
    """(seed, oracle, point generator, directions) for each record seed, from
    the record's own streams, seeded in blocks: the oracle's noise from
    ``RngStream(seed, 0)``, the point generator from stream 2, and from
    stream 1 the record's set of N directions of ``ESTIMATORS[kind]`` or,
    with no kind, the stream itself (``minimize`` draws from its children).
    ``seeds`` is read as the records are, a block ahead at most."""
    seeds, for_dirs, for_noise, for_points = itertools.tee(seeds, 4)
    dirs = (RngStream(seed, 1) for seed in for_dirs)
    if kind is not None:
        dirs = ESTIMATORS[kind].sets(fn.n, N, dirs)
    noise_rngs = generators(RngStream(seed, 0) for seed in for_noise)
    points = generators(RngStream(seed, 2) for seed in for_points)
    for seed, noise_rng, point, d in zip(seeds, noise_rngs, points, dirs):
        yield seed, fn.oracle(dataclasses.replace(noise, seed=seed), noise_rng), point, d


#: Most floats in one array that a record or check draws or evaluates at once.
MAX_SET_FLOATS = 1_000_000
#: The function the noise_bound check samples; the largest n of gsg_variance_domination.
_NOISE_FUNCTION, _VARIANCE_MAX_N = "sin_n10", 8


def run_gradient_accuracy(cfg: dict, out_dir: str) -> dict:
    """Sweep (function, estimator, sigma, N, trial); write records and summaries.

    Writes one row per trial into records.csv as the trial ends, plus one
    row per (function, estimator, sigma, N) group into summary.csv with the
    mean and quartiles of log10 theta; of a group's trials only their log10
    thetas and status counts are kept.  Interpolation
    estimators are pinned to N = n, so direction-count factors other than 1
    apply only to gsg/cgsg.  A trial whose estimate raises a runtime failure
    is recorded as "failed", with its replay seed and no theta, and counted
    in its group's "failed" column.  An N whose estimate would evaluate more
    than MAX_SET_FLOATS floats is a ConfigError before the first record.
    """
    cfg_hash = config_hash(cfg)
    exp_id = cfg.get("experiment_id", cfg_hash[:12])
    cfg = with_defaults(cfg)
    fns = _functions(cfg["functions"])
    noise = _noise_model(cfg)
    root = cfg["seed"]

    combos = [(fname, est, sigma, nf) for fname, est, sigma, nf in itertools.product(
        cfg["functions"], cfg["estimators"], map(float, cfg["sigmas"]), cfg["n_factors"])
        if nf == 1 or not ESTIMATORS[est].interpolates]
    for fname, est, _, nf in combos:
        n = fns[fname].n
        if (floats := ESTIMATORS[est].evals_per_call(nf * n) * n) > MAX_SET_FLOATS:
            raise ConfigError(f"n_factors {nf:,}: one {est} estimate on {fname} evaluates "
                              f"{floats:,} floats, above MAX_SET_FLOATS = {MAX_SET_FLOATS:,}")
    os.makedirs(out_dir, exist_ok=True)
    records_path = os.path.join(out_dir, "records.csv")
    summary_path = os.path.join(out_dir, "summary.csv")
    summaries = []
    with csv_file(records_path, ACCURACY_COLUMNS, cfg_hash) as write:
        for fname, est, sigma, nf in combos:
            fn = fns[fname]
            N = nf * fn.n
            head = {"experiment_id": exp_id, "function": fname, "n": fn.n,
                    "estimator": est, "method": "", "N": N, "sigma": sigma}
            seeds = (record_seed(root, exp_id, fname, est, repr(sigma), N, trial)
                     for trial in range(cfg["trials"]))
            logs, statuses = [], collections.Counter()
            for trial, (seed, oracle, point, dirs) in enumerate(_records(fn, noise, seeds, est, N)):
                x = (np.zeros(fn.n) if cfg["eval_point"] == "origin"
                     else point.uniform(-2.0, 2.0, fn.n))
                theta = log10_theta = None
                status = "ok"
                try:
                    result = estimate_on(est, oracle, x, sigma, dirs)
                    theta = relative_error(result.g, fn.gradient(x))
                    log10_theta = math.log10(theta) if theta > 0 else None
                except UndefinedMetricError:
                    status = "skipped"
                except DFOError:
                    status = "failed"
                if log10_theta is not None:
                    logs.append(log10_theta)
                statuses[status] += 1
                write([(*head.values(), trial, seed, theta, log10_theta, oracle.eval_count,
                        status)])
            summary = {**head, "count": len(logs), "skipped": statuses["skipped"],
                       "failed": statuses["failed"]}
            if logs:
                q1, med, q3 = np.percentile(logs, [25.0, 50.0, 75.0])
                summary.update(mean_log10_theta=float(np.mean(logs)), q1_log10_theta=float(q1),
                               median_log10_theta=float(med), q3_log10_theta=float(q3))
            summaries.append(summary)
    write_csv(summary_path, SUMMARY_COLUMNS, summaries, cfg_hash)
    return {
        "records": records_path,
        "summary": summary_path,
        "n_records": len(combos) * cfg["trials"],
        "n_summaries": len(summaries),
    }


def _resolve_x0(choice, n: int, point: np.random.Generator) -> np.ndarray:
    if isinstance(choice, list):
        return np.asarray(choice, dtype=float)
    if choice == "origin":
        return np.zeros(n)
    if choice == "ones":
        return np.ones(n)
    return point.uniform(-2.0, 2.0, n)


def _method_configs(method: dict, fname: str, fn, noise_bound: float, budget: int):
    """The estimator and stepper configs of one method on the function the
    config names ``fname``.

    Both are built from the keys the method sets, so every default and range
    is the dataclass's own; the one harness default is a line search that
    tolerates the configured noise bound.  Raises ConfigError naming the
    method and ``fname`` when a value is out of range, a key belongs to
    another stepper type, or the budget cannot cover one iteration.
    """
    stepper = dict(method["stepper"])
    kind = stepper.pop("type")
    if kind == "line_search":
        stepper.setdefault("eps_f", noise_bound)
    with _config_errors(f"method {method['name']} on {fname}"):
        est_cfg = EstimatorConfig(
            **method["estimator"],
            constants=dataclasses.replace(fn.constants, eps_f=noise_bound),
        )
        est_cfg.check_budget(fn.n, budget)
        return est_cfg, STEPPERS[kind](**stepper)


#: Most oracle evaluations one optimize run may spend; a trace keeps every iterate.
MAX_BUDGET = 1_000_000


#: Bytes of one k of one seed in an envelope spill: phi, grad_norm_true, evals.
_SPILLED = 3 * 8


def _envelope(fname: str, mname: str, spill, lengths: list):
    """The aggregate rows of one (function, method), ROW_BLOCK k at a time,
    from its seeds' triples in ``spill``, seed after seed, ``lengths`` k
    each.  Per k, the seeds reaching it, in order, are a contiguous row to
    reduce, so the rows have np.mean's, np.min's and np.max's bits."""

    def read(first: int, count: int) -> np.ndarray:
        spill.seek(first * _SPILLED)
        return np.frombuffer(spill.read(count * _SPILLED)).reshape(count, 3)

    firsts = list(itertools.accumulate(lengths, initial=0))
    lo = 0
    for hi in sorted(set(lengths)):
        reaching = [first for first, size in zip(firsts, lengths) if size >= hi]
        seeds = len(reaching)
        for start in range(lo, hi, ROW_BLOCK):
            ks = range(start, min(start + ROW_BLOCK, hi))
            block = np.stack([read(first + start, len(ks)) for first in reaching], axis=-1)
            phi, grad, evals = (np.add.reduce(block, axis=-1) / seeds).T.tolist()
            low, high = (u.reduce(block[:, 0], axis=-1).tolist() for u in (np.minimum, np.maximum))
            yield zip(itertools.repeat(fname), itertools.repeat(mname), ks,
                      itertools.repeat(seeds), phi, low, high, grad, evals)
        lo = hi


def run_optimization(cfg: dict, out_dir: str) -> dict:
    """One trace file per (function, method, seed), written as its run ends,
    plus a mean/min/max envelope per (function, method) aggregated across
    seeds by iteration, written to aggregate.csv once the group's last run
    ends.  Until then each run's phi, grad_norm_true and evals columns wait
    in a temporary file, so the seeds cost disk, not memory.

    Returns the paths written and, keyed by "function/method/s<seed>", each
    trace's status and its stop reason (``trace.detail``, empty when none).
    """
    cfg_hash = config_hash(cfg)
    exp_id = cfg.get("experiment_id", cfg_hash[:12])
    cfg = with_defaults(cfg)
    fns = _functions(cfg["functions"])
    noise = _noise_model(cfg)
    budget = cfg["budget"]
    if budget > MAX_BUDGET:
        raise ConfigError(f"budget {budget:,} exceeds MAX_BUDGET = {MAX_BUDGET:,} evaluations")
    x0_spec = cfg["x0"]

    names = [m["name"] for m in cfg["methods"]]
    if len(set(names)) != len(names):
        raise ConfigError(f"method names must be unique, got {names}")
    if isinstance(x0_spec, list):
        for fname, fn in fns.items():
            if len(x0_spec) != fn.n:
                raise ConfigError(f"x0 has dimension {len(x0_spec)}, {fname} needs {fn.n}")
    configs = {
        (fname, method["name"]): _method_configs(method, fname, fn, noise.bound, budget)
        for fname, fn in fns.items()
        for method in cfg["methods"]
    }

    os.makedirs(out_dir, exist_ok=True)
    trace_paths, statuses, details = [], {}, {}
    agg_path = os.path.join(out_dir, "aggregate.csv")
    with csv_file(agg_path, AGGREGATE_COLUMNS, cfg_hash) as write:
        for (fname, mname), (est_cfg, stepper) in configs.items():
            fn = fns[fname]
            run_seeds = [record_seed(cfg["seed"], exp_id, fname, mname, s) for s in cfg["seeds"]]
            with tempfile.TemporaryFile() as spill:
                lengths = []
                for seed, (_, oracle, point, stream) in zip(cfg["seeds"],
                                                            _records(fn, noise, run_seeds)):
                    x0 = _resolve_x0(x0_spec, fn.n, point)
                    trace = minimize(oracle, x0, est_cfg, stepper, budget, stream)
                    path = os.path.join(out_dir, f"trace_{fname}__{mname}__s{seed}.csv")
                    write_trace(path, trace, cfg_hash)
                    trace_paths.append(path)
                    run = f"{fname}/{mname}/s{seed}"
                    statuses[run], details[run] = trace.status, trace.detail
                    columns = trace.phi, trace.grad_norm_true, trace.evals
                    for lo in range(0, len(trace.evals), ROW_BLOCK):
                        block = np.column_stack([c[lo:lo + ROW_BLOCK] for c in columns])
                        spill.write(block.tobytes())  # float64 (phi, grad, evals) by k
                    lengths.append(len(trace.evals))
                    del trace, columns  # before the next run starts
                for rows in _envelope(fname, mname, spill, lengths):
                    write(rows)
    return {"traces": trace_paths, "aggregate": agg_path,
            "statuses": statuses, "details": details}


# ---------------------------------------------------------------------------
# verify-bounds checks


def _json_safe(value):
    """``value`` with every float that is not finite replaced by None."""
    if isinstance(value, dict):
        return {key: _json_safe(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_json_safe(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _worst_case(check: str, cases, details: str) -> dict:
    """The report entry of one check from its (slack, witness or None) cases:
    the least slack is the margin, the first witness fails the check, and a
    check with no case fails with no margin.  ``{worst}`` in ``details`` is
    filled with the margin.  A margin or witness value that is not finite is
    written as null, so the report stays valid JSON."""
    worst = min((slack for slack, _ in cases), default=math.inf)
    witness = next((w for _, w in cases if w is not None), None)
    details = details.format(worst=worst)
    if not cases:
        return {"check": check, "passed": False, "margin": None,
                "details": f"0 trials: {details}", "witness": None}
    return _json_safe({"check": check, "passed": witness is None, "margin": worst,
                       "details": details, "witness": witness})


def _check_interpolation_bound(cfg, root, noise) -> dict:
    declared = cfg["declared_eps_f"]
    combos = [(f, s) for f in ("sin_n10", "quad_n10") for s in cfg["sigmas"]]
    per = max(1, cfg["trials"] // len(combos))
    cases = []
    for fname, sigma in combos:
        fn = get_function(fname)
        bound = interpolation_error_bound(
            sigma, fn.n, dataclasses.replace(fn.constants, eps_f=declared))
        seeds = [record_seed(root, "interp", fname, repr(sigma), t) for t in range(per)]
        for seed, oracle, point, dirs in _records(fn, noise, seeds, "liod", fn.n):
            x = point.uniform(-2.0, 2.0, fn.n)
            err = interpolation_error(oracle, x, sigma, dirs)
            witness = {"function": fname, "sigma": sigma, "seed": seed,
                       "error": err, "bound": bound, "declared_eps_f": declared}
            cases.append(((bound - err) / bound,
                          witness if err > bound * (1.0 + 1.0e-9) else None))
    return _worst_case("interpolation_error_bound", cases,
                       f"{len(cases)} trials; worst relative slack {{worst:.3e}}")


def _check_variance_domination(cfg, root, noise) -> dict:
    reps = cfg["variance_reps"]
    cases, details = [], []
    for n in [n for n in cfg["dimensions"] if n <= _VARIANCE_MAX_N]:
        a = RngStream(record_seed(root, "var", n), 3).generator().standard_normal(n)
        a_norm = float(np.linalg.norm(a))
        for N in (1, 4):
            max_eig = gsg_covariance_top(a, N, RngStream(record_seed(root, "var", n, N), 1), reps)
            kappa = gsg_variance_bound(a_norm, a_norm, n, N)
            ratio = max_eig / kappa
            details.append(f"n={n},N={N}: max_eig/kappa={ratio:.3f}")
            witness = {"n": n, "N": N, "max_eig": max_eig, "kappa": kappa}
            cases.append((1.0 - ratio, witness if max_eig > kappa else None))
    return _worst_case("gsg_variance_domination", cases,
                       "; ".join(details) or "runs only at dimensions <= 8")


#: Most directions per trial the gsg_sample_size check draws (16 MB at n = 2).
MAX_SAMPLE_SIZE = 1_000_000


def _check_sample_size(cfg, root, noise) -> dict:
    delta = cfg["delta"]
    r = cfg["theta"]  # theta ||grad phi||, as ||a|| = 1
    trials = cfg["trials"]
    n = min(cfg["dimensions"])
    a = RngStream(record_seed(root, "size", n), 3).generator().standard_normal(n)
    a /= np.linalg.norm(a)
    try:
        N = gsg_sample_size(1.0, 1.0, n, delta, r)
        if N > MAX_SAMPLE_SIZE:
            raise ValueError(f"N = {N:,} directions per trial")
    except ValueError as exc:
        raise ConfigError(
            f"gsg_sample_size at n={n}, delta {delta}, theta {r}: {exc}; "
            f"the check draws at most MAX_SAMPLE_SIZE = {MAX_SAMPLE_SIZE:,}") from exc
    violations = gsg_misses(a, N, r, RngStream(record_seed(root, "size", n, N), 1), trials)
    freq = violations / trials
    witness = None if freq <= delta else {"n": n, "N": N, "frequency": freq}
    return _worst_case(
        "gsg_sample_size", [(delta - freq, witness)],
        f"n={n}, N={N}: {violations}/{trials} violations (freq {freq:.4f} vs delta {delta})")


def _check_moment_identities(cfg, root, noise) -> dict:
    samples = cfg["samples"]
    cases = []
    for n in cfg["dimensions"]:
        a = RngStream(record_seed(root, "moments", n), 3).generator().standard_normal(n)
        for identity_id in MOMENT_IDENTITIES:
            res = moment_identity_check(
                identity_id, n, a=a, samples=samples,
                rng=RngStream(record_seed(root, "moments", n, identity_id), 1),
            )
            witness = {"identity": identity_id, "n": n,
                       "max_deviation": res.max_deviation, "tolerance": res.tolerance}
            cases.append((res.tolerance - res.max_deviation, None if res.passed else witness))
    return _worst_case("gaussian_moment_identities", cases,
                       f"{len(cases)} identity checks at {samples} samples, 3 SE tolerance")


def _check_armijo_guarantee(cfg, root, noise) -> dict:
    eps_f = noise.bound
    theta = cfg["theta"]
    trials = min(cfg["trials"], 200)
    fn = get_function("quad_n5")
    c = LineSearchConstants(c1=0.2, tau=0.3, theta=theta)
    abar = alpha_bar(c, fn.constants.L)
    eta_val = eta(c, fn.constants.L)
    cases = []
    seeds = [record_seed(root, "armijo", t) for t in range(trials)]
    for t, (_, oracle, gen, _) in enumerate(_records(fn, noise, seeds)):
        x = gen.uniform(-2.0, 2.0, fn.n)
        grad = fn.gradient(x)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm == 0.0:
            continue
        # perturb within the norm condition: ||g - grad|| <= theta ||grad||
        e = gen.standard_normal(fn.n)
        e *= theta * grad_norm * gen.random() / np.linalg.norm(e)
        g = grad + e
        # any step at or below alpha_bar must pass the relaxed test
        alpha = abar * gen.random()
        f_curr = oracle.evaluate(x)
        lhs = oracle.evaluate(x - alpha * g)
        rhs = f_curr - c.c1 * alpha * float(g @ g) + 2.0 * eps_f
        witness = {"trial": t, "alpha": alpha, "lhs": lhs, "rhs": rhs} if lhs > rhs else None
        # a full backtracking pass certifies at least the eta-rate decrease
        x_next, _ = backtracking_step(
            oracle, x, g, 1.0, c.c1, c.tau, eps_f, f_curr=f_curr
        )
        decrease_bound = fn.value(x) - eta_val * grad_norm**2 + 4.0 * eps_f
        slack = float(decrease_bound - fn.value(x_next))
        if slack < 0 and witness is None:
            witness = {"trial": t, "phi_next": float(fn.value(x_next)),
                       "guarantee": decrease_bound}
        cases.append((slack, witness))
    return _worst_case("armijo_decrease_guarantee", cases,
                       f"{trials} trials; worst decrease slack {{worst:.3e}}")


def _check_noise_bound(cfg, root, noise) -> dict:
    declared = cfg["declared_eps_f"]
    trials = cfg["trials"]
    fn = get_function(_NOISE_FUNCTION)
    seed, oracle, point, _ = next(_records(fn, noise, [record_seed(root, "noise")]))
    X = point.uniform(-2.0, 2.0, (trials, fn.n))
    eps = np.abs(oracle.evaluate_batch(X) - fn.value(X))
    row = int(np.argmax(eps))
    worst = float(eps[row])
    witness = {"seed": seed, "row": row, "x": X[row].tolist(), "abs_eps": worst,
               "declared_eps_f": declared}
    return _worst_case(
        "noise_bound", [((declared - worst) / declared if declared > 0 else -worst,
                         witness if worst > declared + 1.0e-15 else None)],
        f"max |f - phi| = {worst:.3e} over {trials} points vs declared {declared:.3e}")


#: verify-bounds checks by name; each is called as check(cfg, root seed,
#: noise model) with the config's defaults filled in.
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
    be replayed.  A check that raises a runtime failure (:class:`DFOError`)
    fails with the error text in its details and no margin.
    """
    cfg_hash = config_hash(cfg)
    exp_id = cfg.get("experiment_id", cfg_hash[:12])
    cfg = with_defaults(cfg)
    noise = _noise_model(cfg)
    cfg.setdefault("declared_eps_f", noise.bound)
    small = [n for n in cfg["dimensions"] if n <= _VARIANCE_MAX_N]
    for check, key, n in [("noise_bound", "trials", get_function(_NOISE_FUNCTION).n),
                          ("gsg_variance_domination", "variance_reps", max(small, default=0))]:
        if check in cfg["checks"] and (floats := cfg[key] * n) > MAX_SET_FLOATS:
            raise ConfigError(f"{key} {cfg[key]:,}: {check} draws {floats:,} floats at once, "
                              f"above MAX_SET_FLOATS = {MAX_SET_FLOATS:,}")
    results = []
    for name in cfg["checks"]:
        try:
            results.append(_CHECKS[name](cfg, cfg["seed"], noise))
        except DFOError as exc:
            results.append({"check": name, "passed": False, "margin": None,
                            "details": f"runtime failure: {exc}", "witness": None})
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
