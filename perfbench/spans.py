"""Per-layer spans, recorded from outside the program.

A :class:`Tracer` replaces the public functions of each dfoline layer with
timing wrappers while it is installed.  The modules import functions by name
(``from ..estimators import gsg``), so every reference to a timed function in
a loaded ``dfoline`` module is replaced, not only the defining one; methods
are replaced on their class.  Nothing under ``src/`` changes.

For each timed function ``<layer>.<function>`` the tracer totals ``.calls``
and ``.self_s``: the span's duration minus the time of the timed spans it
called.  Each thread keeps its own span stack, so the totals stay right when
the harness fans work out to threads (``--jobs 2``); a span waiting on other
threads keeps that wait in its self time.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Counter:
    """An extra count ``<span name>.<suffix>`` summed over the span's calls.

    ``after(args, result, before)`` gives the call's count; ``before(args)``,
    when set, is read as the call starts.  ``result`` is None when the call
    raised.
    """

    suffix: str
    after: Callable
    before: Callable | None = None


def _rows_in_batch(args, result, before):
    return len(args[1])


def _iterations(args, result, before):
    return result.iterations if result is not None else 0


def _oracle_evals(args):
    return args[0].eval_count


def _evals_since(args, result, before):
    return args[0].eval_count - before


def _rows_written(args, result, before):
    return len(args[2])


def _bytes_written(args, result, before):
    return os.path.getsize(args[0])


#: (module under ``dfoline``, qualified name, extra counters).  The span name
#: is ``<module>.<qualified name>``.
SPANS = (
    ("core", "RngStream.generator", ()),
    ("core", "Oracle.evaluate", ()),
    ("core", "Oracle.evaluate_batch", (Counter("points", _rows_in_batch),)),
    ("directions", "gaussian_directions", ()),
    ("directions", "orthonormal_directions", ()),
    ("directions", "coordinate_directions", ()),
    ("estimators", "gsg", ()),
    ("estimators", "cgsg", ()),
    ("estimators", "interpolation_gradient", ()),
    ("estimators", "relative_error", ()),
    ("optimizer", "minimize", (Counter("iterations", _iterations),)),
    # Evaluations made inside the step: its trial points, plus f(x) when the
    # caller does not pass f_curr (every caller in the harness passes it).
    ("optimizer", "backtracking_step",
     (Counter("trials", _evals_since, before=_oracle_evals),)),
    ("bounds", "moment_identity_check", ()),
    ("testfns", "corpus", ()),
    ("harness.config", "load_config", ()),
    ("harness.csvio", "write_csv",
     (Counter("rows", _rows_written), Counter("bytes", _bytes_written))),
    ("harness.csvio", "record_seed", ()),
    ("harness.runners", "run_gradient_accuracy", ()),
    ("harness.runners", "run_optimization", ()),
    ("harness.runners", "run_verify_bounds", ()),
)


def metric_names() -> list[str]:
    """Every total a tracer reports, in SPANS order."""
    names = []
    for module, qualname, counters in SPANS:
        span = f"{module}.{qualname}"
        names += [f"{span}.calls", f"{span}.self_s"]
        names += [f"{span}.{c.suffix}" for c in counters]
    return names


class _ThreadState(threading.local):
    def __init__(self, tables: list, lock: threading.Lock):
        self.stack: list[float] = []
        self.totals: defaultdict = defaultdict(float)
        with lock:
            tables.append(self.totals)


class Tracer:
    """Span totals for the calls made while :meth:`installed` is active."""

    def __init__(self):
        self._lock = threading.Lock()
        self._tables: list[defaultdict] = []
        self._state = _ThreadState(self._tables, self._lock)

    def totals(self) -> dict[str, float]:
        """Every metric of :func:`metric_names`, summed over all threads."""
        merged = dict.fromkeys(metric_names(), 0.0)
        with self._lock:
            for table in self._tables:
                for name, value in table.items():
                    merged[name] += value
        return merged

    def _wrap(self, name: str, fn, counters):
        calls_key, self_key = f"{name}.calls", f"{name}.self_s"
        counted = [(f"{name}.{c.suffix}", c) for c in counters]
        state = self._state
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            befores = [c.before(args) if c.before else None for _, c in counted]
            stack = state.stack
            stack.append(0.0)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                totals = state.totals
                totals[calls_key] += 1
                totals[self_key] += elapsed - child
                for (key, c), before in zip(counted, befores):
                    totals[key] += c.after(args, result, before)

        return span

    @contextmanager
    def installed(self):
        """Replace every timed function while the block runs, then restore."""
        replaced = []
        try:
            for module_name, qualname, counters in SPANS:
                module = importlib.import_module(f"dfoline.{module_name}")
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    fn = owner.__dict__[attr]
                    targets = [owner]
                else:
                    fn = getattr(module, attr)
                    targets = [
                        m for key, m in list(sys.modules.items())
                        if (key == "dfoline" or key.startswith("dfoline."))
                        and getattr(m, attr, None) is fn
                    ]
                wrapper = self._wrap(f"{module_name}.{qualname}", fn, counters)
                for target in targets:
                    replaced.append((target, attr, fn))
                    setattr(target, attr, wrapper)
            yield self
        finally:
            for target, attr, fn in reversed(replaced):
                setattr(target, attr, fn)
