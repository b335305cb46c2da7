"""The benchmark's per-layer tracer still finds every function it times.

``perfbench/spans.py`` names dfoline functions by module and qualified name;
a rename or removal in the library would break the benchmark, so tier-1
installs the tracer once and checks that it counts and restores.
"""

import importlib.util
import pathlib
import sys

import numpy as np

import dfoline.estimators
from dfoline import Oracle, RngStream
from dfoline.estimators import estimate

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
    totals = tracer.totals()
    assert totals["estimators.gsg.calls"] == 1
    assert totals["directions.gaussian_directions.calls"] == 1
    assert totals["core.Oracle.evaluate_batch.points"] == 3
    assert dfoline.estimators.gsg is gsg
