"""Benchmark of the dfoline command line: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run it from anywhere inside a checkout; it imports dfoline from the
checkout's ``src/`` and exits with code 2 if there is none.  Each run calls
the CLI entry point ``dfoline.harness.cli.main`` in this (warm) process:

1. With ``--trace 0``, it times fresh interpreters that import the CLI and
   load the workload's config (``setup_s``): three before the warm-up,
   three after it and three after the units.
2. It runs one warm-up unit of the workload under the tracer; the unit is
   not timed.  Its output is the reference that every later unit must
   match byte for byte, and its checks (``checks.py``) decide which
   operations failed.
3. It repeats the unit for ``--seconds`` seconds and at least twice,
   untraced with ``--trace 0`` and traced with ``--trace 1``, and reports
   the median unit.
   Traced verify runs then time each theory check on its own.

Every unit's times are divided by the machine's pace (``pace.py``) measured
around the unit, so they read in seconds at the reference machine's speed.
``setup_s`` is the probes' own median, not paced: see ``SETUP_PROBES``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread for this process and the set-up interpreters it starts.
# With OpenBLAS's default thread count its threads spin on the tiny matrices
# these workloads use, so CPU time exceeds wall time and both vary more.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import checks  # noqa: E402
import pace  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Fresh interpreters timed for setup_s in each of a run's three probe
#: groups (before the warm-up, after it, after the units); setup_s is the
#: median of all nine.  One probe lasts about 0.35 s, and 40 back-to-back
#: probes spread by 0.14 (IQR/median) while the machine's pace held still;
#: medians of 9 of them spread by 0.06.  The machine's speed holds for 30 to
#: 60 s at a time, so nine probes back to back sample one state of it; the
#: groups spread the probes over the run.  Over ten runs, the median of nine
#: back-to-back probes spread by 0.07-0.26 (two sets), that of the groups by
#: 0.09-0.21 (three sets).  setup_s is not paced: probes take either about
#: 0.22 s or about 0.33 s when the machine runs in bursts, and a pace reading
#: short enough to fall inside a burst widened the spread of the
#: back-to-back median over ten runs from 0.07-0.15 to 0.12-0.36.
SETUP_PROBES = 3

#: Units measured per run at the least, however long they take: a verify
#: unit alone lasts about a run, and one pace reading per run is too few.
MIN_UNITS = 2

SETUP_PROBE = """
import sys, time
start = time.perf_counter()
from dfoline.harness import cli
cli.load_config(sys.argv[1])
elapsed = time.perf_counter() - start
if not cli.__file__.startswith(sys.argv[2]):
    sys.exit(f"imported {cli.__file__}, not the checkout's copy")
print(repr(elapsed))
"""


@dataclass(frozen=True)
class Workload:
    command: str
    jobs: int
    check: Callable


WORKLOADS = {
    "sweep": Workload("grad-accuracy", 1, checks.check_sweep),
    "optimize": Workload("optimize", 2, checks.check_optimize),
    "verify": Workload("verify-bounds", 1, checks.check_verify),
}


@dataclass(frozen=True)
class Unit:
    exit_code: int
    wall_s: float
    cpu_s: float
    #: the machine's pace around the unit
    pace: float
    #: sha256 over the exit code and every output file's name and bytes
    digest: str


def run_unit(cli, argv: list[str], out_dir: Path,
             expected_s: float = 0.0) -> tuple[Unit, dict[str, bytes]]:
    """One CLI invocation into an emptied out_dir, timed; also its outputs.

    ``expected_s``, the unit's expected length, sets how long the pace is
    measured on each side.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    before = pace.round_times(expected_s)
    with contextlib.redirect_stdout(io.StringIO()):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        code = cli.main(argv)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    unit_pace = pace.pace(before + pace.round_times(expected_s))
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} if out_dir.is_dir() else {}
    h = hashlib.sha256(str(code).encode())
    for name, data in files.items():
        h.update(name.encode() + b"\0" + data + b"\0")
    return Unit(code, wall, cpu, unit_pace, h.hexdigest()), files


def measure_setup(config_path: Path) -> list[float]:
    """Seconds for each of SETUP_PROBES fresh interpreters to import the CLI
    and load the config."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)}
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(config_path), str(SRC)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith(".bytes") else "count"


def time_checks(runners, seed: int, out_dir: Path, reference: dict,
                expected_s: float) -> tuple[dict, list]:
    """Metrics of each theory check run alone through run_verify_bounds.

    Gives ``harness.runners.check.<check>_s``, the paced seconds of each
    check, and the span totals of ``bounds.moment_identity_check``, which
    only gaussian_moment_identities calls.  The checks run traced, like the
    rest of a traced run.  A check's result does not depend on which other
    checks run, so the entry of each check the workload runs must equal its
    entry in the reference report.  gaussian_moment_identities is timed
    only: the workload leaves it out because its verdict depends on the
    seed.  ``expected_s`` is the expected length of the six runs together.
    """
    seconds, problems = {}, []
    tracer = spans.Tracer()
    before = pace.round_times(expected_s)
    with tracer.installed():
        for name in checks.VERIFY_CHECKS:
            shutil.rmtree(out_dir, ignore_errors=True)
            cfg = {"experiment": "verify_bounds", "checks": [name], "seed": seed}
            start = time.perf_counter()
            report = runners.run_verify_bounds(cfg, str(out_dir))
            seconds[name] = time.perf_counter() - start
            entry = json.dumps(report["checks"][0], sort_keys=True)
            if name in reference and entry != reference[name]:
                problems.append(f"{name} alone differs from the full report")
    check_pace = pace.pace(before + pace.round_times(expected_s))
    metrics = {f"harness.runners.check.{name}_s": s / check_pace
               for name, s in seconds.items()}
    totals = tracer.totals()
    span = "bounds.moment_identity_check"
    metrics[f"{span}.calls"] = totals[f"{span}.calls"]
    metrics[f"{span}.self_s"] = totals[f"{span}.self_s"] / check_pace
    return metrics, problems


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    from dfoline.harness import cli, runners

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported dfoline from {cli.__file__}, not from {SRC}")
    workload = WORKLOADS[workload_name]
    config_path = HERE / "configs" / f"{workload_name}.json"
    config = {**json.loads(config_path.read_text()), "seed": seed}
    out_dir = OUT / f"{workload_name}-{os.getpid()}"
    argv = [workload.command, "--config", str(config_path), "--out", str(out_dir),
            "--seed", str(seed), "--jobs", str(workload.jobs)]
    setup_times = []

    def probe_setup():
        if not trace:
            setup_times.extend(measure_setup(config_path))

    try:
        probe_setup()
        warm_tracer = spans.Tracer()
        with warm_tracer.installed():
            reference, files = run_unit(cli, argv, out_dir)
        evals = int(warm_tracer.totals()["core.Oracle.evaluate_batch.points"])
        probe_setup()

        tracer = spans.Tracer()
        units = []
        with tracer.installed() if trace else contextlib.nullcontext():
            start = time.perf_counter()
            while len(units) < MIN_UNITS or time.perf_counter() - start < seconds:
                units.append(run_unit(cli, argv, out_dir, reference.wall_s)[0])
        probe_setup()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        verdict = workload.check(config, files, reference.exit_code)
        if verdict.evals is not None and verdict.evals != evals:
            verdict.problems.append(f"output files count {verdict.evals} evaluations, "
                                    f"the oracle counted {evals}")
        mismatched = sum(u.digest != reference.digest for u in units)
        if mismatched:
            verdict.problems.append(
                f"{mismatched} of {len(units)} units differ from the traced warm-up")

        wall_s = statistics.median(u.wall_s / u.pace for u in units)
        if setup_times:
            print("setup: " + ", ".join(f"{t:.3f}" for t in setup_times) + " s",
                  file=sys.stderr)
        print(f"{workload_name}: {len(units)} units, raw wall_s / pace: " + ", ".join(
            f"{u.wall_s:.3f}/{u.pace:.3f}" for u in units), file=sys.stderr)
        if trace:
            run_pace = statistics.median(u.pace for u in units)
            metrics = {}
            for name, total in tracer.totals().items():
                value = total / len(units)
                unit = _layer_unit(name)
                metrics[name] = {"value": value / run_pace if unit == "s" else value,
                                 "unit": unit}
            metrics["traced.wall_s"] = {"value": wall_s, "unit": "s"}
            for name in checks.VERIFY_CHECKS:
                metrics[f"harness.runners.check.{name}_s"] = {"value": 0.0, "unit": "s"}
            if workload_name == "verify":
                entries = {c["check"]: json.dumps(c, sort_keys=True)
                           for c in json.loads(files["report.json"])["checks"]}
                check_metrics, problems = time_checks(runners, seed, out_dir, entries,
                                                      reference.wall_s)
                verdict.problems += problems
                for name, value in check_metrics.items():
                    metrics[name] = {"value": value, "unit": _layer_unit(name)}
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "wall_s": {"value": wall_s, "unit": "s"},
                "cpu_s": {"value": statistics.median(u.cpu_s / u.pace for u in units),
                          "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                "evals_per_s": {"value": evals / wall_s, "unit": "1/s"},
            }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()

    for problem in verdict.problems:
        print(f"problem: {problem}", file=sys.stderr)
    return {
        "correct": not verdict.problems,
        "attempted": verdict.attempted * len(units),
        "failed": verdict.failed * len(units),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "dfoline" / "__init__.py").is_file():
        print(f"no dfoline sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
