"""The output ledger: what the CLI writes for a fixed list of small configs.

For each case the ledger holds the SHA-256 digest of every output file, of
standard output (with the output directory masked) and of the exit code,
plus a short digest of each line of each, so a mismatch can name the first
line that differs.  ``tests/test_ledger.py`` reruns every case through
``cli.main`` and compares.  The ledger also records the environment whose
bits it holds: numpy's version, the SIMD target each float64 ufunc
dispatches to (sin and cos have several) and OpenBLAS's kernel.

Rewrite the ledger from the code of this checkout, after a deliberate
output change, with

    PYTHONPATH=src python tests/ledger.py

and list first what such a rewrite would move, writing nothing, with

    PYTHONPATH=src python tests/ledger.py --diff
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

import numpy as np

from dfoline.harness.cli import main

LEDGER = pathlib.Path(__file__).with_name("ledger.json")

KINDS = ["gsg", "cgsg", "liod", "ligd", "fd"]


def _accuracy(noise, sigmas=(1.0e-3,), functions=("quad_n5", "sin_n10"), **extra):
    return {"experiment": "grad_accuracy", "functions": list(functions), "estimators": KINDS,
            "sigmas": list(sigmas), "trials": 2, "noise": noise, **extra}


def _method(name, kind, sigma, stepper, **estimator):
    return {"name": name, "estimator": {"kind": kind, "sigma": sigma, **estimator},
            "stepper": stepper}


_LS = {"type": "line_search"}

#: name -> (subcommand, config, extra CLI arguments)
CASES = {
    **{f"accuracy_noise_{kind}": ("grad-accuracy", _accuracy(
        {"kind": kind, "bound": 1.0e-6 if kind != "none" else 0.0}, n_factors=[1, 2]), [])
       for kind in ("none", "uniform", "sinusoidal", "adversarial_sign")},
    # sigma 1.7e308: every probe point is inf, a batch the oracle rejects
    "accuracy_rejected_batch": ("grad-accuracy", _accuracy(
        {"kind": "uniform", "bound": 1.0e-6}, [1.7e308], ["quad_n5"]), []),
    # sigma 1e300: finite probes whose values overflow; sigma 1e-310: values
    # whose differences over sigma overflow
    "accuracy_overflow": ("grad-accuracy", _accuracy(
        {"kind": "uniform", "bound": 0.1}, [1.0e300, 1.0e-310], ["quad_n5"]), []),
    "optimize_kinds": ("optimize", {
        "experiment": "optimize", "functions": ["quad_n5", "sin_n10"], "budget": 300,
        "seeds": [0, 1], "noise": {"kind": "uniform", "bound": 1.0e-6}, "methods": [
            _method("gsg_ls", "gsg", 1.0e-3, _LS),
            _method("cgsg_fixed", "cgsg", 1.0e-3, {"type": "fixed", "alpha": 0.05}),
            _method("liod_ls", "liod", 1.0e-4, _LS),
            _method("ligd_adam", "ligd", 1.0e-4, {"type": "adam", "alpha": 0.05}),
            _method("fd_ls", "fd", 1.0e-4, _LS),
            _method("gsg_n2", "gsg", 1.0e-3, _LS, num_directions=2),
        ]}, []),
    "optimize_sinusoidal": ("optimize", {
        "experiment": "optimize", "functions": ["sin_n10"], "budget": 200, "seeds": [3],
        "noise": {"kind": "sinusoidal", "bound": 1.0e-5}, "methods": [
            _method(f"{kind}_ls", kind, 1.0e-3, _LS) for kind in KINDS]}, ["--seed", "11"]),
    # traces of ragged lengths, some across INSTRUMENT_BLOCK and ROW_BLOCK (256)
    "optimize_ragged": ("optimize", {
        "experiment": "optimize", "functions": ["rosenbrock_n4", "quad_n20"], "budget": 6000,
        "seeds": [0, 1, 2, 3], "noise": {"kind": "uniform", "bound": 1.0e-9},
        "methods": [_method("gsg_ls", "gsg", 1.0e-4, {"type": "line_search", "eps_f": 0.0})]},
        []),
    # 8 or more seeds reaching a k: the envelope's per-k sums are pairwise
    "optimize_nine_seeds": ("optimize", {
        "experiment": "optimize", "functions": ["quad_n10"], "budget": 150,
        "seeds": list(range(9)), "noise": {"kind": "uniform", "bound": 1.0e-6},
        "methods": [_method("liod_ls", "liod", 1.0e-4, _LS)]}, []),
    "optimize_failures": ("optimize", {
        "experiment": "optimize", "functions": ["quad_n5"], "budget": 3000, "seeds": [0],
        "noise": {"kind": "adversarial_sign", "bound": 1.0e-8}, "x0": "ones", "methods": [
            # a fixed step past 2 / L: the iterate grows until sigma is lost to rounding
            *(_method(f"{kind}_diverges", kind, 1.0e-3, {"type": "fixed", "alpha": 1.0})
              for kind in KINDS),
            # the first step overflows f at x, a finite iterate
            *(_method(f"{kind}_huge_step", kind, 1.0e-3, {"type": "fixed", "alpha": 1.0e200})
              for kind in KINDS),
            # the first step overflows the iterate to inf
            *(_method(f"{kind}_inf_step", kind, 1.0e-3, {"type": "fixed", "alpha": 1.7e308})
              for kind in KINDS),
            # finite probes whose values overflow
            *(_method(f"{kind}_huge_sigma", kind, 1.0e300, _LS) for kind in KINDS),
            *(_method(f"{kind}_rejected", kind, 1.7e308, _LS) for kind in KINDS),
        ]}, []),
    # the line search stalls at alpha_min, and an adaptive sigma loses its window
    "optimize_noise_floor": ("optimize", {
        "experiment": "optimize", "functions": ["quad_n10"], "budget": 3000, "seeds": [0, 5],
        "noise": {"kind": "uniform", "bound": 1.0e-4}, "x0": "ones", "methods": [
            _method("liod_ls", "liod", 6.0e-3, {"type": "line_search", "eps_f": 0.0}),
            _method("fd_adaptive", "fd", 1.0e-2, _LS, adaptive=True, theta=0.1),
        ]}, []),
    "verify_checks": ("verify-bounds", {
        "experiment": "verify_bounds", "trials": 8, "samples": 10_000,
        "variance_reps": 500, "dimensions": [2, 3], "delta": 0.3, "theta": 0.3,
        "noise": {"kind": "uniform", "bound": 1.0e-6}}, []),
    "verify_failures": ("verify-bounds", {
        "experiment": "verify_bounds", "trials": 4, "sigmas": [1.7e308, 1.0e300],
        "checks": ["interpolation_error_bound", "noise_bound"],
        "noise": {"kind": "sinusoidal", "bound": 1.0e-6}, "declared_eps_f": 1.0e-7}, []),
}


def _blas_core() -> str:
    """The kernel name of the OpenBLAS that numpy wheels bundle, or ""."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        name = next(f for f in sorted(os.listdir(libs)) if f.startswith("libscipy_openblas"))
        corename = ctypes.CDLL(os.path.join(libs, name)).scipy_openblas_get_corename64_
    except (OSError, StopIteration, AttributeError):
        return ""
    corename.restype = ctypes.c_char_p
    return corename().decode()


def environment() -> dict:
    """What the output bits depend on besides the code."""
    from numpy.lib.introspect import opt_func_info

    targets = {name: loops["dd"]["current"]
               for name, loops in sorted(opt_func_info(signature="float64").items())
               if "dd" in loops}
    return {"numpy": np.__version__, "float64_ufunc_targets": targets,
            "openblas_core": _blas_core()}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def entry(data: bytes) -> dict:
    """The ledger entry of one output: its digest and a short digest per line."""
    lines = data.split(b"\n")
    return {"sha256": _digest(data), "lines": " ".join(_digest(line)[:8] for line in lines)}


def run_case(name: str, tmp: str) -> dict[str, bytes]:
    """Run case ``name`` in the fresh directory ``tmp``: its exit code, its
    standard output with the output directory masked, and each file it
    wrote, by name."""
    command, cfg, extra = CASES[name]
    cfg_path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([command, "--config", cfg_path, "--out", out, *extra])
    outputs = {"exit": str(code).encode(),
               "stdout": stdout.getvalue().replace(out, "<out>").encode()}
    for file in sorted(os.listdir(out)) if os.path.isdir(out) else []:
        outputs[file] = pathlib.Path(out, file).read_bytes()
    return outputs


def first_difference(expected: dict, data: bytes) -> str:
    """Where ``data`` first differs from the output of entry ``expected``:
    the number and text of its first line whose digest differs."""
    lines = data.split(b"\n")
    old = expected["lines"].split()
    for number, (digest, line) in enumerate(zip(old, lines), start=1):
        if digest != _digest(line)[:8]:
            return f"first differing line {number}: {line.decode(errors='replace')!r}"
    if len(old) != len(lines):
        return f"{len(lines)} lines where the ledger has {len(old)}"
    return "each line's digest agrees, the whole file's does not"


def differences(name: str, expected: dict, outputs: dict[str, bytes]) -> list[str]:
    """Each output of case ``name`` whose digest is not the one ``expected``
    (the case's ledger entries) holds, missing or not in the ledger, with
    its first differing line."""
    problems = [f"{name}: {key} is missing" for key in expected if key not in outputs]
    problems += [f"{name}: {key} is not in the ledger" for key in outputs if key not in expected]
    problems += [f"{name}: {key}: {first_difference(expected[key], data)}"
                 for key, data in outputs.items()
                 if key in expected and entry(data)["sha256"] != expected[key]["sha256"]]
    return problems


def diff() -> int:
    """Print every output of every case whose digest would move, and how
    many; return the count."""
    recorded = json.loads(LEDGER.read_text(encoding="utf-8"))["cases"]
    moved = [f"{name}: not in the ledger" for name in CASES if name not in recorded]
    moved += [f"{name}: in the ledger, not a case" for name in recorded if name not in CASES]
    for name in (name for name in CASES if name in recorded):
        with tempfile.TemporaryDirectory() as tmp:
            moved += differences(name, recorded[name], run_case(name, tmp))
    print("\n".join([*moved, f"{len(moved)} outputs would move"]))
    return len(moved)


def build() -> dict:
    cases = {}
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            cases[name] = {key: entry(data) for key, data in run_case(name, tmp).items()}
    return {"environment": environment(), "cases": cases}


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--diff"]):
        sys.exit(f"usage: {sys.argv[0]} [--diff]")
    with np.errstate(all="ignore"):
        if sys.argv[1:]:
            diff()
            sys.exit()
        ledger = build()
    LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(len(c) for c in ledger['cases'].values())} entries of "
          f"{len(ledger['cases'])} cases to {LEDGER}", file=sys.stderr)
