"""Command-line interface.

    dfoline grad-accuracy --config cfg.json --out results/ [--seed N]
    dfoline optimize      --config cfg.json --out results/ [--seed N]
    dfoline verify-bounds --config cfg.json --out results/ [--seed N]
    dfoline list-functions

Every run is sequential, in the calling thread.  ``--jobs K`` is still
accepted by the three experiment subcommands and changes nothing.

Exit codes: 0 success, 2 configuration error, 3 bound violation reported by
verify-bounds.
"""

from __future__ import annotations

import argparse
import sys

from ..testfns import corpus
from .config import ConfigError, load_config
from .runners import run_gradient_accuracy, run_optimization, run_verify_bounds

_EXPECTED_KIND = {
    "grad-accuracy": "grad_accuracy",
    "optimize": "optimize",
    "verify-bounds": "verify_bounds",
}


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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-functions":
        return _list_functions()

    try:
        cfg = load_config(args.config)
        expected = _EXPECTED_KIND[args.command]
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
