"""The benchmark's per-layer tracer still finds every function it times.

``perfbench/spans.py`` names dfoline functions by module and qualified name;
a rename or removal in the library would break the benchmark, so tier-1
installs the tracer once and checks that it counts and restores.
"""

import csv
import importlib.util
import pathlib
import sys

import numpy as np
import pytest

import dfoline.directions
import dfoline.estimators
import dfoline.optimizer
from dfoline import (
    EstimatorConfig,
    FixedStepConfig,
    LineSearchConfig,
    NoiseModel,
    Oracle,
    RngStream,
    quadratic,
)
from dfoline.estimators import estimate
from dfoline.harness.runners import run_gradient_accuracy

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up by name
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_restores():
    gsg = dfoline.estimators.gsg
    tracer = load_spans().Tracer()
    with tracer.installed():
        oracle = Oracle(lambda X: X.sum(axis=1), 2, vectorized=True)
        estimate("gsg", oracle, np.zeros(2), 0.1, 2, RngStream(0, 1))
        dfoline.directions.gaussian_directions(2, 2, RngStream(0, 1))
    totals = tracer.totals()
    assert totals["estimators.gsg.calls"] == 1
    assert totals["directions.gaussian_directions.calls"] == 1
    assert totals["core.Oracle.evaluate_batch.points"] == 3
    assert dfoline.estimators.gsg is gsg


@pytest.mark.parametrize("stepper, noise, counts", [
    (LineSearchConfig(eps_f=1.0e-4), NoiseModel("uniform", 1.0e-4, seed=5), (42, 42, 85)),
    (FixedStepConfig(alpha=0.05), None, (60, 0, 0)),
], ids=["line_search", "fixed"])
def test_tracer_counts_minimize_and_backtracking(stepper, noise, counts):
    """The line search's step function calls ``optimizer.backtracking_step``
    by its module name, so the tracer counts every search and trial; a fixed
    step makes none.  The counts are those of this run at a fixed seed."""
    tracer = load_spans().Tracer()
    with tracer.installed():
        dfoline.optimizer.minimize(
            quadratic(4, 1.0, 3.0).oracle(noise), np.ones(4),
            EstimatorConfig(kind="gsg", sigma=1.0e-2, num_directions=4), stepper,
            budget=300, rng=1,
        )
    totals = tracer.totals()
    iterations, searches, trials = counts
    assert totals["optimizer.minimize.calls"] == 1
    assert totals["optimizer.minimize.iterations"] == iterations
    assert totals["optimizer.backtracking_step.calls"] == searches
    assert totals["optimizer.backtracking_step.trials"] == trials


@pytest.mark.parametrize("kind, formula, stepper", [
    ("liod", "interpolation_gradient", LineSearchConfig(eps_f=1.0e-6)),
    ("gsg", "gsg", FixedStepConfig(alpha=0.02)),
    ("cgsg", "cgsg", FixedStepConfig(alpha=0.02)),
    ("ligd", "interpolation_gradient", LineSearchConfig(eps_f=1.0e-6)),
    ("fd", "interpolation_gradient", FixedStepConfig(alpha=0.05)),
], ids=["liod_line_search", "gsg_fixed", "cgsg_fixed", "ligd_line_search", "fd_fixed"])
def test_tracer_sees_every_evaluation_and_estimate(kind, formula, stepper):
    """The benchmark counts evaluations at ``Oracle.evaluate_batch`` and
    checks them against the output files, and counts estimates at the
    estimator's formula: a loop that evaluated or estimated around either
    would make its numbers wrong."""
    oracle = quadratic(10, 1.0, 10.0).oracle(NoiseModel("uniform", 1.0e-6, seed=2))
    tracer = load_spans().Tracer()
    with tracer.installed():
        trace = dfoline.optimizer.minimize(
            oracle, np.ones(10), EstimatorConfig(kind=kind, sigma=1.0e-4), stepper,
            budget=1500, rng=RngStream(4, 1),
        )
    totals = tracer.totals()
    estimated = int(np.count_nonzero(~np.isnan(trace.g_norm)))
    assert estimated > 40
    assert totals["core.Oracle.evaluate_batch.points"] == oracle.eval_count
    assert totals[f"estimators.{formula}.calls"] == estimated


def test_tracer_sees_every_sweep_evaluation(tmp_path):
    """The benchmark's sweep check: every evaluation the records count goes
    through the traced ``Oracle.evaluate_batch``, failed records included
    (at sigma 1e-310 the quotient overflows after the values are counted; a
    batch the oracle rejects unevaluated would count rows but no evals)."""
    cfg = {"experiment": "grad_accuracy", "functions": ["quad_n5", "sin_n10"],
           "estimators": ["gsg", "cgsg", "liod", "ligd", "fd"], "sigmas": [1.0e-2, 1.0e-310],
           "trials": 3, "n_factors": [1, 2], "noise": {"kind": "uniform", "bound": 0.1}}
    tracer = load_spans().Tracer()
    with tracer.installed(), np.errstate(over="ignore", invalid="ignore"):
        res = run_gradient_accuracy(cfg, str(tmp_path))
    with open(res["records"], encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert {r["status"] for r in rows} == {"ok", "failed"}
    evals = sum(int(r["evals"]) for r in rows)
    assert evals > 0 and tracer.totals()["core.Oracle.evaluate_batch.points"] == evals
