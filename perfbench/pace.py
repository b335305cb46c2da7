"""The machine's pace: how much slower than the reference machine it runs now.

The machines this benchmark runs on share their cores and caches with other
tenants, and their speed drifts by a factor of up to 1.8 within minutes.  A
fixed calibration round, timed just before and after each unit of work,
tracks that drift: dividing a unit's time by the pace gives its time at the
reference machine's speed, which is steady enough to compare two commits.
The workloads follow the round only in part, so the pace is the round's
slowdown raised to PACE_EXPONENT.

The round does the kind of work the workloads do (build a seeded PCG64
stream, draw a small vector and matrix, multiply, take a norm) in plain
numpy, apart from the program, so no change to dfoline moves it.

Each calibration starts with a full garbage collection, so garbage the
program leaves behind is collected before the rounds, not during them, and
cannot slow the round and so flatter the paced time.

Run as a script, it is the drift probe: it prints the median round time of
each 5-second window for 60 seconds.

    python3 perfbench/pace.py
"""

from __future__ import annotations

import gc
import json
import statistics
import time

import numpy as np

#: Median seconds of one round on the reference machine (2 vCPUs, Python
#: 3.11, numpy 2.4; see README.md).
REFERENCE_ROUND_S = 0.012

#: A workload slows by about the 0.5th to 0.6th power of the round's
#: slowdown from one unit to the next (least-squares slope of log unit time
#: on log round time, 0.51-0.57 over 758 units), but by its whole slowdown
#: between stretches of minutes, which is what keeps two sets of runs
#: together.  Of the exponents 0, 0.5, 0.6, 0.75 and 1, tried on six sets
#: of runs, 0.75 gave the smallest worst spread of run medians on sweep and
#: optimize, and on verify one within 0.03 of the smallest (README.md).
PACE_EXPONENT = 0.75

#: Rounds are timed on each side of a unit of work for this share of the
#: unit's length, and for at least MIN_CALIBRATION_S: a few rounds around a
#: long unit would sample a moment, not the stretch of time the unit took.
CALIBRATION_SHARE = 0.05
MIN_CALIBRATION_S = 0.2

#: The drift probe's length and window, in seconds.
DRIFT_PROBE_S = 60.0
DRIFT_WINDOW_S = 5.0

_DRAWS = 300


def calibration_round(index: int) -> float:
    """Seconds taken by one fixed round of small numpy work."""
    start = time.perf_counter()
    for j in range(_DRAWS):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(index, spawn_key=(j,))))
        x = gen.uniform(-2.0, 2.0, 10)
        Q = gen.standard_normal((10, 10))
        np.linalg.norm(Q @ x - x)
    return time.perf_counter() - start


def round_times(unit_s: float = 0.0) -> list[float]:
    """Round times for calibrating a unit of about ``unit_s`` seconds."""
    gc.collect()
    end = time.perf_counter() + max(MIN_CALIBRATION_S, CALIBRATION_SHARE * unit_s)
    times = []
    while time.perf_counter() < end:
        times.append(calibration_round(len(times)))
    return times


def pace(times: list[float]) -> float:
    """Median round time relative to the reference machine's, raised to
    PACE_EXPONENT."""
    return (statistics.median(times) / REFERENCE_ROUND_S) ** PACE_EXPONENT


def main() -> None:
    medians = []
    start = time.perf_counter()
    while time.perf_counter() - start < DRIFT_PROBE_S:
        window_end = time.perf_counter() + DRIFT_WINDOW_S
        times = []
        while not times or time.perf_counter() < window_end:
            times.append(calibration_round(len(times)))
        medians.append(statistics.median(times) * 1e3)
        print(f"window {len(medians) - 1:2d}: median round {medians[-1]:.2f} ms", flush=True)
    print(json.dumps({
        "window_medians_ms": [round(m, 3) for m in medians],
        "max_over_min": round(max(medians) / min(medians), 3),
    }))


if __name__ == "__main__":
    main()
