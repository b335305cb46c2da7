"""Command-line interface.

    dfoline grad-accuracy --config cfg.json --out results/ [--seed N]
    dfoline optimize      --config cfg.json --out results/ [--seed N]
    dfoline verify-bounds --config cfg.json --out results/ [--seed N]
    dfoline list-functions

Every run is sequential, in the calling thread.  ``--jobs K`` is still
accepted by the three experiment subcommands and changes nothing.  Unless
``OPENBLAS_NUM_THREADS`` is set, an experiment runs with one thread of
numpy's bundled OpenBLAS: its threads spin on the small matrix products
here and add CPU time, not speed.

Exit codes: 0 success, 2 configuration error or an ``--out`` location that
cannot be written, 3 a verify-bounds check that failed (a bound violation,
no trial, or a runtime failure).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from ..testfns import corpus
from .config import ConfigError, load_config
from .runners import run_gradient_accuracy, run_optimization, run_verify_bounds

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfoline",
        description="Derivative-free optimization experiments: gradient-estimator "
        "accuracy sweeps, optimization traces, and theory verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("grad-accuracy", "Sweep gradient-estimator relative error over (function, sigma, N, trial)."),
        ("optimize", "Run optimization traces for each (function, method, seed)."),
        ("verify-bounds", "Check the closed-form bounds against measured behavior."),
    ]
    for name, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, metavar="PATH",
                       help="JSON experiment config")
        p.add_argument("--out", required=True, metavar="DIR",
                       help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=None, metavar="U64",
                       help="override the config's root seed")
        p.add_argument("--jobs", type=int, default=1, metavar="K",
                       help="accepted and ignored: runs are sequential")
    sub.add_parser("list-functions", help="List the built-in benchmark functions.")
    return parser


def _list_functions() -> int:
    rows = []
    for key, fn in corpus().items():
        c = fn.constants
        extras = [f"L={c.L:g}"]
        if c.mu is not None:
            extras.append(f"mu={c.mu:g}")
        if c.phi_hat is not None:
            extras.append(f"phi_hat={c.phi_hat:g}")
        rows.append((key, fn.n, fn.kind, ", ".join(extras)))
    width = max(len(r[0]) for r in rows)
    for key, n, kind, extras in rows:
        print(f"{key:<{width}}  n={n:<4d} {kind:<16s} {extras}")
    return 0


def _bundled_openblas():
    """The (get, set) thread-count functions of the OpenBLAS library that
    numpy wheels bundle in ``numpy.libs``, or None where there is none."""
    import ctypes

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = sorted(f for f in os.listdir(libs) if f.startswith("libscipy_openblas"))
        lib = ctypes.CDLL(os.path.join(libs, names[0]))
        get = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (OSError, IndexError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get, set_threads


@contextlib.contextmanager
def _one_blas_thread():
    """One OpenBLAS thread while the block runs, then the old count back;
    nothing when OPENBLAS_NUM_THREADS is set or the library is not found."""
    blas = None if "OPENBLAS_NUM_THREADS" in os.environ else _bundled_openblas()
    if blas is None:
        yield
        return
    get, set_threads = blas
    before = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-functions":
        return _list_functions()

    try:
        cfg = load_config(args.config)
        expected = args.command.replace("-", "_")
        if cfg["experiment"] != expected:
            raise ConfigError(
                f"subcommand {args.command} needs \"experiment\": \"{expected}\", "
                f"config declares {cfg['experiment']!r}"
            )
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be a nonnegative integer")
            cfg = {**cfg, "seed": args.seed}
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        # a run that overflows is recorded as failed; numpy's warning adds nothing
        with np.errstate(over="ignore", invalid="ignore"), _one_blas_thread():
            if args.command == "grad-accuracy":
                result = run_gradient_accuracy(cfg, args.out)
                print(f"wrote {result['n_records']} records to {result['records']}")
                print(f"wrote {result['n_summaries']} summaries to {result['summary']}")
            elif args.command == "optimize":
                result = run_optimization(cfg, args.out)
                for run, status in result["statuses"].items():
                    detail = result["details"][run]
                    print(f"{run}: {status} ({detail})" if detail else f"{run}: {status}")
                print(f"wrote {len(result['traces'])} traces and {result['aggregate']}")
            else:
                report = run_verify_bounds(cfg, args.out)
                for check in report["checks"]:
                    verdict = "PASS" if check["passed"] else "FAIL"
                    print(f"{verdict} {check['check']}: {check['details']}")
                    if check["witness"] is not None:
                        print(f"     witness: {check['witness']}")
                print(f"report written to {report['path']}")
                if not report["all_pass"]:
                    return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the runs read no file: a path that cannot be written
        if exc.filename is None:
            raise
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
