"""Experiment harness: configs, CSV persistence, runners, and the CLI."""

import copy
import csv
import dataclasses
import json
import math
import os
import pathlib
import random
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from dfoline import (
    DFOError,
    EvaluationError,
    NoiseModel,
    OptimizationTrace,
    RngStream,
    bounds,
    core,
    directions,
    estimators,
    get_function,
    interpolation_error,
)
from dfoline.estimators import ESTIMATORS, UndefinedMetricError, estimate, relative_error
from dfoline.harness import cli, config
from dfoline.harness.cli import main
from dfoline.harness.config import ConfigError, config_hash, load_config, validate_config
from dfoline.harness.csvio import TRACE_COLUMNS, record_seed, write_csv, write_trace
from dfoline.harness import runners
from dfoline.harness.runners import (
    MAX_BUDGET,
    MAX_SAMPLE_SIZE,
    MAX_SET_FLOATS,
    run_gradient_accuracy,
    run_optimization,
    run_verify_bounds,
)


def read_csv(path) -> tuple[str, list[dict]]:
    """Read back a harness CSV; returns (config hash, rows as string dicts)."""
    with open(path, encoding="utf-8", newline="") as fh:
        first = fh.readline().rstrip("\n")
        prefix = "# config_sha256="
        cfg_hash = first[len(prefix):] if first.startswith(prefix) else ""
        return cfg_hash, list(csv.DictReader(fh))


REPO = pathlib.Path(__file__).resolve().parents[1]

#: The ```json blocks of README.md, each a documented config.
README_CONFIGS = re.findall(r"```json\n(.*?)```", (REPO / "README.md").read_text(), re.S)


def grad_cfg(**overrides):
    cfg = {
        "experiment": "grad_accuracy",
        "experiment_id": "acc-test",
        "functions": ["quad_n5"],
        "estimators": ["gsg", "cgsg", "liod", "fd"],
        "sigmas": [1.0e-1, 1.0e-3, 1.0e-6],
        "trials": 100,
        "seed": 0,
    }
    cfg.update(overrides)
    return cfg


def opt_cfg(**overrides):
    cfg = {
        "experiment": "optimize",
        "experiment_id": "opt-test",
        "functions": ["quad_n10"],
        "methods": [
            {"name": "liod_ls",
             "estimator": {"kind": "liod", "sigma": 1.0e-6},
             "stepper": {"type": "line_search"}},
            {"name": "gsg_fixed",
             "estimator": {"kind": "gsg", "sigma": 1.0e-2},
             "stepper": {"type": "fixed", "alpha": 0.02}},
        ],
        "seeds": [0, 1, 2],
        "budget": 2500,
        "x0": "ones",
        "seed": 0,
    }
    cfg.update(overrides)
    return cfg


def check_noise_witness(witness, noise):
    """The witness's seed and row give its |f - phi| again, exactly: the
    check's points are draws of RngStream(seed, 2) evaluated in one batch on
    a fresh oracle, and the first row + 1 of them replay its row."""
    fn = get_function("sin_n10")
    seed, row = witness["seed"], witness["row"]
    oracle = fn.oracle(NoiseModel(noise["kind"], noise["bound"], seed=seed))
    X = RngStream(seed, 2).generator().uniform(-2.0, 2.0, (row + 1, fn.n))
    assert abs(oracle.evaluate_batch(X) - fn.value(X))[row] == witness["abs_eps"]
    assert X[row].tolist() == witness["x"]
    assert witness["abs_eps"] > witness["declared_eps_f"]


def replay_interpolation_witness(witness, noise):
    """The witness's function, sigma and seed give its error again, exactly."""
    fn = get_function(witness["function"])
    seed = witness["seed"]
    oracle = fn.oracle(NoiseModel(noise["kind"], noise["bound"], seed=seed))
    x = RngStream(seed, 2).generator().uniform(-2.0, 2.0, fn.n)
    dirs = directions.orthonormal_directions(fn.n, fn.n, RngStream(seed, 1))
    assert interpolation_error(oracle, x, witness["sigma"], dirs) == witness["error"]
    assert witness["error"] > witness["bound"]


def read_bytes_tree(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestRecordSeed:
    def test_frozen_value(self):
        assert record_seed(0, "exp", "quad_n5", "gsg", "0.01", 5, 3) \
            == 2608385927542502845

    def test_order_sensitive(self):
        assert record_seed(1, 2) != record_seed(2, 1)

    def test_u64_range(self):
        for parts in [(0,), ("a", "b", 3), (10**18, "x")]:
            s = record_seed(*parts)
            assert 0 <= s < 2**64


class TestCsvRoundTrip:
    def test_repr_floats_and_empty_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [
            {"a": 0.1 + 0.2, "b": float("nan"), "c": None, "d": 7, "e": "ok"},
            {"a": 1.0e-300, "b": 2.5, "c": "x", "d": 0, "e": ""},
        ]
        write_csv(path, ["a", "b", "c", "d", "e"], rows, "h" * 64)
        cfg_hash, back = read_csv(path)
        assert cfg_hash == "h" * 64
        assert back[0]["b"] == "" and back[0]["c"] == ""
        assert float(back[0]["a"]) == 0.1 + 0.2  # repr round-trips exactly
        assert float(back[1]["a"]) == 1.0e-300
        assert back[0]["d"] == "7"

    def test_trace_nan_cells_are_empty(self, tmp_path):
        """write_trace passes cell by cell only the columns that hold a NaN;
        its bytes are those of the same rows each passed cell by cell."""
        nan = float("nan")
        trace = OptimizationTrace(
            x=np.zeros((3, 1)), evals=np.array([2, 4, 6]), f=np.array([1.0, nan, -0.0]),
            phi=np.array([0.5, 0.1 + 0.2, np.inf]), grad_norm_true=np.full(3, nan),
            g_norm=np.array([1.0e-300, 2.0, nan]), alpha=np.array([1.0, 0.5, nan]),
            theta_k=np.array([nan, 0.25, nan]), status="failed", detail="")
        write_trace(tmp_path / "t.csv", [trace], "h")
        rows = [dict(zip(TRACE_COLUMNS, (k, *(getattr(trace, c)[k].item()
                                              for c in TRACE_COLUMNS[1:-1]),
                                         "failed" if k == 2 else "ok"))) for k in range(3)]
        write_csv(tmp_path / "r.csv", TRACE_COLUMNS, rows, "h")
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()
        assert read_csv(tmp_path / "t.csv")[1][0]["theta_k"] == ""

    def test_lf_line_endings_and_hash_line(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a"], [{"a": 1}], "abc123")
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"# config_sha256=abc123\n")


def subschemas(schema):
    """``schema`` and every schema nested in it, depth first."""
    yield schema
    nested = [*schema.get("properties", {}).values(), *schema.get("anyOf", [])]
    for sub in nested + ([schema["items"]] if "items" in schema else []):
        yield from subschemas(sub)


#: For each keyword the walker checks: a schema using it, a value that breaks
#: it, and a value it lets through, of another JSON type where the keyword
#: checks values of one type only.
KEYWORD_CASES = {
    "type": ({"type": "integer"}, 2.0, 2),
    "const": ({"const": "a"}, "b", "a"),
    "enum": ({"enum": ["a"]}, "b", "a"),
    "anyOf": ({"anyOf": [{"type": "string"}, {"enum": [1]}]}, 2, 1),
    "minimum": ({"minimum": 1}, 0.5, True),
    "exclusiveMinimum": ({"exclusiveMinimum": 0}, 0, False),
    "exclusiveMaximum": ({"exclusiveMaximum": 1}, 1.0, "2"),
    "minLength": ({"minLength": 1}, "", []),
    "pattern": ({"pattern": "^a$"}, "ab", 1),
    "minItems": ({"minItems": 1}, [], ""),
    "uniqueItems": ({"uniqueItems": True}, [0.01, 1, 1.0], "aa"),
    "items": ({"items": {"type": "string"}}, ["a", 1], {"0": 1}),
    "required": ({"required": ["a"]}, {"b": 1}, ["b"]),
    "additionalProperties": ({"additionalProperties": False, "properties": {}}, {"a": 1}, ["a"]),
    "properties": ({"properties": {"a": {"type": "string"}}}, {"a": 1}, [1]),
}


def integral_floats_as_ints(value):
    """A copy of a parsed config with each float that is a whole number made an int."""
    if isinstance(value, dict):
        return {k: integral_floats_as_ints(v) for k, v in value.items()}
    if isinstance(value, list):
        return [integral_floats_as_ints(v) for v in value]
    return int(value) if isinstance(value, float) and value.is_integer() else value


def mutate(rng: random.Random, cfg, pool: list, keys: list):
    """``cfg`` after one random edit of a random object or array in it: an
    int made the same float, a value replaced by one from ``pool``, an entry
    dropped, or an entry added (a key from ``keys`` with a value from
    ``pool`` in an object; in an array a value from ``pool`` or, for a
    "repeat", one of its own entries)."""
    nodes = [cfg]
    for node in nodes:
        nodes.extend(v for v in (node.values() if isinstance(node, dict) else node)
                     if isinstance(v, (dict, list)))
    node = rng.choice(nodes)
    index = list(node) if isinstance(node, dict) else range(len(node))
    edit = rng.choice(["float", "replace", "drop", "add", "repeat"] if index else ["add"])
    if edit in ("float", "replace"):
        k = rng.choice(index)
        node[k] = (float(node[k]) if edit == "float" and isinstance(node[k], int)
                   else copy.deepcopy(rng.choice(pool)))
    elif edit == "drop":
        del node[rng.choice(index)]
    elif isinstance(node, dict):
        node[rng.choice(keys)] = copy.deepcopy(rng.choice(pool))
    else:
        node.append(copy.deepcopy(rng.choice(node if edit == "repeat" else pool)))
    return cfg


class TestConfigValidation:
    def test_valid_passes_through(self):
        cfg = grad_cfg()
        assert validate_config(cfg) is cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="plot_style"):
            validate_config(grad_cfg(plot_style="fancy"))

    def test_enum_violation_carries_path(self):
        with pytest.raises(ConfigError, match="estimators/0"):
            validate_config(grad_cfg(estimators=["newton"]))

    def test_nested_noise_path(self):
        with pytest.raises(ConfigError, match="noise/kind"):
            validate_config(grad_cfg(noise={"kind": "gaussian"}))

    def test_missing_required(self):
        cfg = grad_cfg()
        del cfg["trials"]
        with pytest.raises(ConfigError, match="trials"):
            validate_config(cfg)

    def test_non_object_config(self):
        with pytest.raises(ConfigError, match="JSON object"):
            validate_config([1, 2])

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            validate_config({"experiment": "plot"})

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(bad))

    def test_load_config_rejects_non_finite_numbers(self, tmp_path):
        """NaN, Infinity and a float that overflows are refused while parsing;
        finite numbers parse to the floats json.load gives."""
        path = tmp_path / "cfg.json"
        for token in ("NaN", "Infinity", "-Infinity", "1e999", "-1e999"):
            path.write_text(json.dumps(grad_cfg(sigmas=[0.1])).replace("0.1", token))
            with pytest.raises(ConfigError) as info:
                load_config(str(path))
            assert str(info.value) == f"config {path}: number {token} is not finite"
        # valid JSON, so not called invalid; a long token is shortened
        path.write_text(json.dumps(grad_cfg(sigmas=[10**400])))
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert str(info.value) == \
            f"config {path}: number 1000000000...0000 (401 digits) is not finite"
        text = json.dumps(grad_cfg(sigmas=[0.1, 1e-310, 1.7e308, 5e-324, 3]))
        path.write_text(text)
        assert load_config(str(path)) == json.loads(text)

    @pytest.mark.parametrize("path", sorted(
        str(p.relative_to(REPO)) for p in (REPO / "perfbench" / "configs").glob("*.json")))
    def test_benchmark_configs_load(self, path):
        """A schema change that breaks a benchmark config fails here, not in
        the benchmark run."""
        assert load_config(str(REPO / path))["experiment"]

    @pytest.mark.parametrize("index", range(len(README_CONFIGS)))
    def test_readme_configs_load(self, tmp_path, index):
        path = tmp_path / "cfg.json"
        path.write_text(README_CONFIGS[index])
        assert load_config(str(path))["experiment"]

    def test_every_schema_keyword_is_checked(self):
        """A keyword the walker does not know would be a KeyError only for
        configs that reach it; a schema edit that adds one fails here."""
        for schema in config._schemas().values():
            for sub in subschemas(schema):
                assert set(sub) <= set(config._KEYWORDS), sub
                assert sub.get("type", "string") in config._PY_TYPES
                assert sub.get("additionalProperties", False) is False
        assert set(config._KEYWORDS) == set(KEYWORD_CASES) | {"default"}

    @pytest.mark.parametrize("keyword", KEYWORD_CASES)
    def test_walker_keyword(self, keyword):
        """Each keyword rejects a value that breaks it and checks only values
        of its own JSON type; a bool is not a number."""
        schema, breaks, passes = KEYWORD_CASES[keyword]
        assert next(config._errors(breaks, schema, ""), None)
        assert next(config._errors(passes, schema, ""), None) is None

    def test_walker_agrees_with_jsonschema(self):
        """On seeded mutations of the benchmark, README and default verify
        configs, the walker accepts exactly what jsonschema's Draft 2020-12
        validator accepts, except an integral float at an integer key, which
        only the walker rejects.  Some mutations repeat a list's item, which
        both reject where the list's items must be unique."""
        jsonschema = pytest.importorskip("jsonschema")
        schemas = config._schemas()
        reference = {kind: jsonschema.Draft202012Validator(schema)
                     for kind, schema in schemas.items()}
        bases = [json.loads(p.read_text())
                 for p in sorted((REPO / "perfbench" / "configs").glob("*.json"))]
        bases += [json.loads(text) for text in README_CONFIGS]
        bases.append(config.with_defaults({"experiment": "verify_bounds"}))
        subs = [sub for schema in schemas.values() for sub in subschemas(schema)]
        keys = sorted({k for sub in subs for k in sub.get("properties", {})}) + ["plot_style"]
        words = sorted({w for sub in subs for w in [*sub.get("enum", []), sub.get("const", "")]})
        pool = [None, True, False, 0, 1, -1, 3, 10000, 2**63, 0.0, 2.0, 0.5, -0.5, 10.0,
                1e-308, 5e-324, 1.7e308, -1.7e308, "", "m 1", *words,
                [], [1], [2.0], [0.1], ["gsg"], {}, {"kind": "none"}]
        rng = random.Random(12)
        counts = {"both valid": 0, "both invalid": 0, "integral float": 0, "repeat": 0}
        for trial in range(3000):
            base = bases[trial % len(bases)]
            cfg = json.loads(json.dumps(base))
            for _ in range(rng.randint(1, 2)):
                cfg = mutate(rng, cfg, pool, keys)
            schema = schemas[base["experiment"]]
            errors = list(config._errors(cfg, schema, ""))
            if reference[base["experiment"]].is_valid(cfg) == (not errors):
                counts["both valid" if not errors else "both invalid"] += 1
                counts["repeat"] += any(m.endswith("non-unique elements") for _, m in errors)
            else:
                assert errors and all(m.endswith("is not of type 'integer'") for _, m in errors), cfg
                assert not list(config._errors(integral_floats_as_ints(cfg), schema, "")), cfg
                counts["integral float"] += 1
        assert min(counts.values()) >= 30, counts

    def test_config_hash_key_order_invariant(self):
        a = {"b": 1, "a": [1, 2]}
        b = {"a": [1, 2], "b": 1}
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 64
        assert config_hash(a) != config_hash({"a": [1, 2], "b": 2})


def own_record(row: dict, kind: str, eval_point: str) -> tuple[str, str, str]:
    """A sweep row's theta, status and evals cells from the record's own
    streams, one numpy seeding each: the sweep's loop body before its
    streams were seeded in blocks."""
    fn, seed, sigma = get_function(row["function"]), int(row["seed"]), float(row["sigma"])
    oracle = fn.oracle(NoiseModel(kind, 1.0e-3, seed=seed))
    x = RngStream(seed, 2).generator().uniform(-2.0, 2.0, fn.n)
    if eval_point == "origin":
        x = np.zeros(fn.n)
    try:
        g = estimate(row["estimator"], oracle, x, sigma, int(row["N"]), RngStream(seed, 1)).g
        theta, status = repr(relative_error(g, fn.gradient(x))), "ok"
    except UndefinedMetricError:
        theta, status = "", "skipped"
    except DFOError:
        theta, status = "", "failed"
    return theta, status, str(oracle.eval_count)


class TestGradAccuracyRunner:
    def test_record_and_summary_counts(self, tmp_path):
        res = run_gradient_accuracy(grad_cfg(), str(tmp_path))
        assert res["n_records"] == 4 * 3 * 100
        assert res["n_summaries"] == 4 * 3
        cfg_hash, rows = read_csv(res["records"])
        assert cfg_hash == config_hash(grad_cfg())
        assert len(rows) == 1200
        assert all(r["status"] == "ok" for r in rows)

    def test_interpolation_pipeline_accuracy(self, tmp_path):
        """Noiseless LIOD on a quadratic at sigma = 1e-6 sits many digits
        inside the bound; GSG at the same sigma does not get close."""
        res = run_gradient_accuracy(grad_cfg(trials=20), str(tmp_path))
        _, summaries = read_csv(res["summary"])
        by_key = {(s["estimator"], s["sigma"]): s for s in summaries}
        liod = float(by_key[("liod", "1e-06")]["mean_log10_theta"])
        gsg = float(by_key[("gsg", "1e-06")]["mean_log10_theta"])
        assert liod <= -4.0
        assert gsg >= liod + 1.5

    def test_rerun_byte_identical_and_jobs_invariant(self, tmp_path):
        cfg = grad_cfg(trials=25)
        dirs = [tmp_path / d for d in ("a", "b")]
        run_gradient_accuracy(cfg, str(dirs[0]))
        run_gradient_accuracy(cfg, str(dirs[1]))
        a, b = map(read_bytes_tree, map(str, dirs))
        assert a == b

    def test_zero_gradient_rows_are_skipped(self, tmp_path):
        cfg = grad_cfg(estimators=["liod"], sigmas=[0.1], trials=3,
                       eval_point="origin")
        res = run_gradient_accuracy(cfg, str(tmp_path))
        _, rows = read_csv(res["records"])
        assert [r["status"] for r in rows] == ["skipped"] * 3
        assert all(r["theta"] == "" for r in rows)
        _, summaries = read_csv(res["summary"])
        assert summaries[0]["count"] == "0" and summaries[0]["skipped"] == "3"
        assert summaries[0]["mean_log10_theta"] == ""

    def test_seed_changes_output(self, tmp_path):
        r1 = run_gradient_accuracy(grad_cfg(trials=5, seed=1), str(tmp_path / "a"))
        r2 = run_gradient_accuracy(grad_cfg(trials=5, seed=2), str(tmp_path / "b"))
        _, rows1 = read_csv(r1["records"])
        _, rows2 = read_csv(r2["records"])
        assert [r["seed"] for r in rows1] != [r["seed"] for r in rows2]


    @staticmethod
    def blocks_cfg(kind: str, eval_point: str) -> dict:
        """Every estimator, both direction-count factors, a failing sigma, and
        300 trials, so each group's streams cross a seed block of 256."""
        return grad_cfg(functions=["quad_n5", "sin_n10"],
                        estimators=["gsg", "cgsg", "liod", "ligd", "fd"],
                        sigmas=[1.0e-2, 1.7e308], trials=300, n_factors=[1, 2],
                        noise={"kind": kind, "bound": 1.0e-3}, eval_point=eval_point, seed=4)

    @pytest.mark.parametrize("kind, eval_point", [
        ("none", "origin"), ("uniform", "random"), ("sinusoidal", "random"),
        ("adversarial_sign", "origin"),
    ])
    def test_block_seeded_streams_give_each_records_own_draws(self, tmp_path, monkeypatch,
                                                              kind, eval_point):
        """The sweep seeds its record streams in blocks, and orthonormal sets
        share a QR per block; each row must be the one that the per-record
        loop below gets from the record's own streams.  Blocks of 8 seeds and
        of 3 sets keep it short: each group's 20 trials cross two seed blocks
        and six QR blocks, and end in a ragged one of each.  The blocks of
        256 seeds and 16 sets are test_blocks_of_one_write_the_same_bytes'."""
        monkeypatch.setattr(core, "SEED_BLOCK", 8)
        monkeypatch.setattr(directions, "ORTHONORMAL_BLOCK", 3)
        with np.errstate(over="ignore", invalid="ignore"):
            res = run_gradient_accuracy({**self.blocks_cfg(kind, eval_point), "trials": 20},
                                        str(tmp_path))
            _, rows = read_csv(res["records"])
            assert len(rows) == 2 * 2 * 7 * 20
            assert {r["status"] for r in rows} >= {"ok", "failed"}
            for row in rows:
                assert (row["theta"], row["status"], row["evals"]) == own_record(row, kind, eval_point)

    def test_blocks_of_one_write_the_same_bytes(self, tmp_path, monkeypatch):
        """One function keeps the unblocked run, at about 0.4 ms a seed, short."""
        cfg = {**self.blocks_cfg("uniform", "random"), "functions": ["sin_n10"]}
        with np.errstate(over="ignore", invalid="ignore"):
            run_gradient_accuracy(cfg, str(tmp_path / "blocked"))
            monkeypatch.setattr(core, "SEED_BLOCK", 1)
            monkeypatch.setattr(directions, "ORTHONORMAL_BLOCK", 1)
            run_gradient_accuracy(cfg, str(tmp_path / "one"))
        assert read_bytes_tree(str(tmp_path / "blocked")) == read_bytes_tree(str(tmp_path / "one"))

    def test_ligd_sweep_writes_the_same_bytes_without_the_certificate(self, tmp_path,
                                                                      monkeypatch):
        """The Cholesky certificate of ligd's gate only spares SVDs: with every
        draw sent to np.linalg.cond instead, the sweep writes the same bytes."""
        cfg = grad_cfg(functions=["quad_n10", "sin_n100"], estimators=["ligd"],
                       sigmas=[1.0e-2, 1.0e-5], trials=30)
        certified = []

        def spy(Q, real=estimators._cholesky_certifies):
            certified.append(real(Q))
            return certified[-1]

        monkeypatch.setattr(estimators, "_cholesky_certifies", spy)
        run_gradient_accuracy(cfg, str(tmp_path / "certified"))
        monkeypatch.setattr(estimators, "_cholesky_certifies", lambda Q: False)
        run_gradient_accuracy(cfg, str(tmp_path / "svd"))
        assert len(certified) >= 120 and sum(certified) > 100
        assert read_bytes_tree(str(tmp_path / "certified")) == read_bytes_tree(str(tmp_path / "svd"))


class TestOptimizationRunner:
    def test_traces_aggregate_and_gap(self, tmp_path):
        res = run_optimization(opt_cfg(), str(tmp_path))
        assert len(res["traces"]) == 6
        names = {os.path.basename(p) for p in res["traces"]}
        assert "trace_quad_n10__liod_ls__s0.csv" in names
        for seed in (0, 1, 2):
            _, rows = read_csv(str(tmp_path / f"trace_quad_n10__liod_ls__s{seed}.csv"))
            assert float(rows[-1]["phi"]) <= 1.0e-6
            assert res["statuses"][f"quad_n10/liod_ls/s{seed}"] == "noise_floor"
        _, agg = read_csv(res["aggregate"])
        assert {r["method"] for r in agg} == {"liod_ls", "gsg_fixed"}
        assert max(int(r["n_seeds"]) for r in agg) == 3

    def test_aggregate_is_numpys_envelope(self, tmp_path):
        """Each aggregate row holds np.mean, np.min and np.max over the seeds'
        trace rows at its k, to the bit (a NaN is written as an empty cell).
        numpy sums 8 or more values in lanes, so the check runs at 3 and at 9
        seeds; the liod_ls traces end at different k, so the seeds reaching
        a k change along the envelope."""
        for seeds in (3, 9):
            res = run_optimization(opt_cfg(seeds=list(range(seeds))), str(tmp_path / str(seeds)))
            traces = {}
            for path in res["traces"]:
                fname, mname, _ = os.path.basename(path)[len("trace_"):-len(".csv")].split("__")
                traces.setdefault((fname, mname), []).append(read_csv(path)[1])
            _, agg = read_csv(res["aggregate"])
            assert len(agg) == sum(max(map(len, ts)) for ts in traces.values())
            assert len({len(t) for t in traces["quad_n10", "liod_ls"]}) >= 3
            for row in agg:
                k = int(row["k"])
                recs = [t[k] for t in traces[row["function"], row["method"]] if len(t) > k]
                def col(name):
                    return np.array([float(r[name] or "nan") for r in recs])
                expected = [np.mean(col("phi")), np.min(col("phi")), np.max(col("phi")),
                            np.mean(col("grad_norm_true")), np.mean(col("evals"))]
                got = [float(row[c] or "nan") for c in
                       ("phi_mean", "phi_min", "phi_max", "grad_norm_true_mean", "evals_mean")]
                assert int(row["n_seeds"]) == len(recs)
                assert np.array_equal(got, expected, equal_nan=True), row

    def test_exact_search_beats_noisy_fixed_step(self, tmp_path):
        res = run_optimization(opt_cfg(), str(tmp_path))
        wins = 0
        for seed in (0, 1, 2):
            _, a = read_csv(str(tmp_path / f"trace_quad_n10__liod_ls__s{seed}.csv"))
            _, b = read_csv(str(tmp_path / f"trace_quad_n10__gsg_fixed__s{seed}.csv"))
            wins += float(a[-1]["phi"]) < float(b[-1]["phi"])
        assert wins >= 2

    def test_jobs_invariant(self, tmp_path, capsys):
        """--jobs is still accepted and changes no output byte."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(opt_cfg()))
        argv = ["optimize", "--config", str(path), "--out"]
        assert main(argv + [str(tmp_path / "a")]) == 0
        assert main(argv + [str(tmp_path / "b"), "--jobs", "2"]) == 0
        capsys.readouterr()
        assert read_bytes_tree(str(tmp_path / "a")) == read_bytes_tree(str(tmp_path / "b"))

    def test_duplicate_method_names_rejected(self, tmp_path):
        cfg = opt_cfg()
        cfg["methods"] = [cfg["methods"][0], dict(cfg["methods"][0])]
        with pytest.raises(ConfigError, match="unique"):
            run_optimization(cfg, str(tmp_path))

    def test_first_row_is_the_runs_own_point_and_noise(self, tmp_path):
        """A random x0 is the first uniform(-2, 2, n) draw of RngStream(run
        seed, 2), and the first value the oracle measures there carries the
        first uniform draw of RngStream(run seed, 0) as its noise."""
        bound = 1.0e-3
        cfg = opt_cfg(x0="random", methods=opt_cfg()["methods"][:1], seeds=[0, 1, 2],
                      budget=200, noise={"kind": "uniform", "bound": bound}, seed=9)
        run_optimization(cfg, str(tmp_path))
        fn = get_function("quad_n10")
        for seed in cfg["seeds"]:
            run_seed = record_seed(9, "opt-test", "quad_n10", "liod_ls", seed)
            x0 = RngStream(run_seed, 2).generator().uniform(-2.0, 2.0, fn.n)
            u = RngStream(run_seed, 0).generator().random()
            _, rows = read_csv(str(tmp_path / f"trace_quad_n10__liod_ls__s{seed}.csv"))
            phi = float(fn.value(x0))
            assert float(rows[0]["phi"]) == phi
            assert float(rows[0]["f"]) == phi + bound * (2.0 * u - 1.0)

    def test_trace_rows_match_iteration_count(self, tmp_path):
        res = run_optimization(opt_cfg(seeds=[0]), str(tmp_path))
        for path in res["traces"]:
            _, rows = read_csv(path)
            assert [int(r["k"]) for r in rows] == list(range(len(rows)))
            assert rows[-1]["status"] in ("noise_floor", "budget_exhausted", "converged")


class TestBoundedMemory:
    """Each runner holds at most one block of output rows and no Python
    object per iterate, so its peak memory (numpy's arrays included, which
    tracemalloc sees) does not grow with the run's size."""

    @staticmethod
    def traced_peak(run, cfg, out) -> int:
        tracemalloc.start()
        try:
            run(cfg, str(out))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_grad_accuracy_peak_does_not_grow_with_trials(self, tmp_path, monkeypatch):
        """400 trials peak within 1.1x of 40 (2.2x when every row was kept
        to the end).  Seeds in blocks of 16, not 256, keep the one block of
        seeds and streams small beside the rows at these sizes."""
        monkeypatch.setattr(core, "SEED_BLOCK", 16)
        cfg = grad_cfg(estimators=["gsg"], sigmas=[1.0e-2])
        run_gradient_accuracy(dict(cfg, trials=2), str(tmp_path / "warm"))
        one = self.traced_peak(run_gradient_accuracy, dict(cfg, trials=40), tmp_path / "1")
        ten = self.traced_peak(run_gradient_accuracy, dict(cfg, trials=400), tmp_path / "10")
        assert ten < 1.1 * one, (one, ten)

    def optimization_growth(self, tmp_path, budgets, iterates) -> float:
        """Bytes by which the peak grows per added iterate of one gsg
        fixed-step run on quad_n5 from the first of ``budgets`` to the
        second, whose traces hold ``iterates`` rows."""
        method = {"name": "gsg_fixed", "estimator": {"kind": "gsg", "sigma": 1.0e-2},
                  "stepper": {"type": "fixed", "alpha": 0.02}}
        cfg = opt_cfg(functions=["quad_n5"], methods=[method], seeds=[0])
        run_optimization(dict(cfg, budget=120), str(tmp_path / "warm"))
        peaks, rows = [], []
        for budget in budgets:
            out = tmp_path / str(budget)
            peaks.append(self.traced_peak(run_optimization, dict(cfg, budget=budget), out))
            rows.append(len(read_csv(out / "trace_quad_n5__gsg_fixed__s0.csv")[1]))
        assert rows == iterates
        return (peaks[1] - peaks[0]) / (rows[1] - rows[0])

    def test_optimization_peak_per_iterate(self, tmp_path):
        """From a 960 to a 9,600 evaluation budget the peak grows by under
        200 bytes per added iterate: a whole trace's columns, x and eight
        numbers at n = 5, would be 96.  It grew by about 610 when each
        iterate was a record."""
        assert self.optimization_growth(tmp_path, (960, 9600), [161, 1601]) < 200

    def test_optimization_peak_does_not_grow_with_the_run(self, tmp_path):
        """From a 9,600 to a 48,000 evaluation budget, 7 and 32 blocks of
        INSTRUMENT_BLOCK iterates, the peak grows by under 10 bytes per added
        iterate: each block is written and spilled as the run makes it, and
        no trace is joined.  It grew by about 130 when the runner wrote each
        run from its whole trace."""
        assert self.optimization_growth(tmp_path, (9600, 48000), [1601, 8001]) < 10

    def test_a_run_that_raises_leaves_no_partial_file(self, tmp_path, monkeypatch):
        """A file is written under a temporary name and renamed once complete:
        an error halfway through records.csv, or in the second run of an
        optimize group, leaves that file and its temporary name absent, and
        the complete files as they are."""
        out = tmp_path / "acc"
        calls = []

        def estimate_on(*args):
            calls.append(args)
            if len(calls) == 150:
                assert os.path.getsize(out / "records.csv.tmp") > 0  # rows were written
                raise RuntimeError("estimator broke")
            return real_estimate(*args)

        real_estimate = runners.estimate_on
        monkeypatch.setattr(runners, "estimate_on", estimate_on)
        with pytest.raises(RuntimeError, match="estimator broke"):
            run_gradient_accuracy(grad_cfg(), str(out))
        assert os.listdir(out) == []

        out = tmp_path / "opt"
        runs = []

        def run_blocks(*args):
            runs.append(args)
            blocks = real_run_blocks(*args)
            yield next(blocks)
            if len(runs) == 2:
                assert (out / "trace_quad_n10__liod_ls__s1.csv.tmp").exists()
                raise RuntimeError("optimizer broke")
            yield from blocks

        real_run_blocks = runners.run_blocks
        monkeypatch.setattr(runners, "run_blocks", run_blocks)
        with pytest.raises(RuntimeError, match="optimizer broke"):
            run_optimization(opt_cfg(), str(out))
        assert os.listdir(out) == ["trace_quad_n10__liod_ls__s0.csv"]

    def test_a_failed_rename_leaves_no_partial_file(self, tmp_path, capsys):
        """A complete records.csv that cannot take its name, since a directory
        holds it, is removed too: the CLI exits 2 naming the path, and no
        file is left."""
        out = tmp_path / "o"
        (out / "records.csv").mkdir(parents=True)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(grad_cfg(trials=2)))
        assert main(["grad-accuracy", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"output error: [Errno 21] Is a directory: '{out / 'records.csv.tmp'}'" in err
        assert os.listdir(out) == ["records.csv"] and os.listdir(out / "records.csv") == []


class TestVerifyRunner:
    def test_reduced_run_all_pass(self, tmp_path):
        cfg = {
            "experiment": "verify_bounds",
            "trials": 200,
            "samples": 20000,
            "variance_reps": 2000,
            "dimensions": [2, 3],
            "seed": 0,
        }
        report = run_verify_bounds(cfg, str(tmp_path))
        assert report["all_pass"] is True
        assert len(report["checks"]) == 6
        for check in report["checks"]:
            assert check["passed"] is True
            assert check["witness"] is None
            assert check["details"]
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk["all_pass"] is True
        assert on_disk["config_sha256"] == config_hash(cfg)

    @pytest.mark.parametrize("sigma, error", [
        (1.7e308, "objective returned a non-finite value"),
        (1.0e-320, "gradient estimate contains non-finite entries"),
    ], ids=["sigma_overflows", "sigma_subnormal"])
    def test_runtime_failure_is_a_fail_verdict(self, tmp_path, capsys, sigma, error):
        """A DFOError inside a check is that check's FAIL, with no margin, and
        the checks after it still run."""
        cfg = {"experiment": "verify_bounds", "sigmas": [sigma], "trials": 4,
               "checks": ["interpolation_error_bound", "noise_bound"]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify-bounds", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        out = capsys.readouterr().out
        assert f"FAIL interpolation_error_bound: runtime failure: {error}" in out
        report = json.loads((tmp_path / "o" / "report.json").read_text(),
                            parse_constant=lambda name: pytest.fail(name))
        failed, after = report["checks"]
        assert (failed["passed"], failed["margin"], failed["witness"]) == (False, None, None)
        assert after["check"] == "noise_bound" and after["passed"] is True

    @pytest.mark.parametrize("cfg, printed, finite_margin", [
        ({"checks": ["armijo_decrease_guarantee"],
          "noise": {"kind": "uniform", "bound": 1.0e308}}, "worst decrease slack inf", False),
        ({"checks": ["interpolation_error_bound"], "sigmas": [1.0e-300]},
         "PASS interpolation_error_bound", True),
    ], ids=["armijo_noise_1e308", "interpolation_sigma_1e-300"])
    def test_non_finite_values_written_as_null(self, tmp_path, capsys, cfg, printed,
                                               finite_margin):
        """At noise bound 1e308 the decrease guarantee f - eta ||g||^2 + 4 eps_f
        is +inf: the margin, and a witness value, that is not finite is written
        as null, so report.json stays valid JSON.  At sigma 1e-300 the LIOD
        error is about 1e295, whose square overflows; its norm is still
        measured, so the check passes under the bound of 6.3e295 with a
        finite margin."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "verify_bounds", "trials": 4, **cfg}))
        code = main(["verify-bounds", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code in (0, 3)
        assert printed in capsys.readouterr().out
        report = json.loads((tmp_path / "o" / "report.json").read_text(),
                            parse_constant=lambda name: pytest.fail(name))
        check = report["checks"][0]
        if finite_margin:
            assert code == 0 and check["passed"] is True and 0 < check["margin"] < 1
        else:
            assert check["margin"] is None

    @pytest.mark.parametrize("kind", ["uniform", "adversarial_sign", "none"])
    def test_block_seeded_trial_streams_give_the_report_of_one_stream_each(
            self, tmp_path, monkeypatch, kind):
        """The interpolation and Armijo checks seed each trial's noise and
        point streams in blocks; the report is the one that seeding each
        stream alone gives, byte for byte, and each trial's point is the
        first draw of RngStream(seed, 2) for the seed its noise names."""
        cfg = {"experiment": "verify_bounds", "trials": 300, "seed": 4,
               "noise": {"kind": kind, "bound": 0.0 if kind == "none" else 1.0e-4},
               "checks": ["interpolation_error_bound", "armijo_decrease_guarantee"]}
        seen = []
        for name in ("interpolation_error", "backtracking_step"):
            monkeypatch.setattr(runners, name, lambda oracle, x, *args, real=getattr(
                runners, name), **kw: seen.append((oracle, x)) or real(oracle, x, *args, **kw))
        run_verify_bounds(cfg, str(tmp_path / "blocks"))
        assert len(seen) == 500  # 300 // 4 trials at each of 4 combinations, then 200
        for oracle, x in seen:
            point = RngStream(oracle.noise.seed, 2).generator().uniform(-2.0, 2.0, x.size)
            assert x.tobytes() == point.tobytes()
        monkeypatch.setattr(runners, "generators",
                            lambda streams: (s.generator() for s in streams))
        run_verify_bounds(cfg, str(tmp_path / "alone"))
        blocks, alone = read_bytes_tree(tmp_path / "blocks"), read_bytes_tree(tmp_path / "alone")
        assert blocks == alone and b'"passed": true' in blocks["report.json"]

    @pytest.mark.parametrize("kind", ["uniform", "adversarial_sign", "none"])
    def test_block_drawn_direction_sets_give_the_report_of_one_set_each(
            self, tmp_path, monkeypatch, kind):
        """The interpolation check draws its direction sets in blocks; the
        report is the one that drawing each set alone gives, byte for byte,
        and each trial's set comes from RngStream(seed, 1) for the seed its
        oracle's noise names."""
        cfg = {"experiment": "verify_bounds", "trials": 300, "seed": 5,
               "noise": {"kind": kind, "bound": 0.0 if kind == "none" else 1.0e-4},
               "checks": ["interpolation_error_bound"]}
        real = runners.interpolation_error
        seen = []

        def spy(oracle, x, sigma, dirs):
            err = real(oracle, x, sigma, dirs)
            seen.append((oracle.noise.seed, dirs, err))
            return err

        monkeypatch.setattr(runners, "interpolation_error", spy)
        run_verify_bounds(cfg, str(tmp_path / "blocks"))
        assert len(seen) == 300  # 300 // 4 trials at each of 4 combinations
        for seed, dirs, _ in seen:
            assert dirs.kind == "orthonormal" and dirs.Q.shape == (10, 10)
            assert dirs.stream == RngStream(seed, 1)
        errors = [(seed, err) for seed, _, err in seen]
        seen.clear()
        monkeypatch.setitem(ESTIMATORS, "liod", dataclasses.replace(
            ESTIMATORS["liod"], sets=lambda n, N, streams: (
                directions.orthonormal_directions(n, N, s) for s in streams)))
        run_verify_bounds(cfg, str(tmp_path / "alone"))
        assert [(seed, err) for seed, _, err in seen] == errors
        blocks, alone = read_bytes_tree(tmp_path / "blocks"), read_bytes_tree(tmp_path / "alone")
        assert blocks == alone and b'"passed": true' in blocks["report.json"]

    def test_check_with_zero_trials_fails(self, tmp_path):
        """Variance domination runs only at n <= 8; with none it must not PASS."""
        cfg = {"experiment": "verify_bounds", "checks": ["gsg_variance_domination"],
               "dimensions": [10]}
        report = run_verify_bounds(cfg, str(tmp_path))
        assert report["all_pass"] is False
        assert report["checks"][0]["passed"] is False
        assert report["checks"][0]["margin"] is None
        on_disk = json.loads((tmp_path / "report.json").read_text(),
                             parse_constant=lambda name: pytest.fail(name))
        assert on_disk["checks"][0]["margin"] is None

    @pytest.mark.parametrize("check, declared_eps_f, check_witness", [
        ("noise_bound", 1.0e-9, check_noise_witness),
        ("interpolation_error_bound", 1.0e-12, replay_interpolation_witness),
    ], ids=["noise_bound", "interpolation_error_bound"])
    def test_noise_bound_negative_control(self, tmp_path, check, declared_eps_f,
                                          check_witness):
        """Declaring a smaller eps_f than the oracle actually emits must
        flip the check to FAIL and serialize a witness that replays."""
        noise = {"kind": "uniform", "bound": 1.0e-5}
        cfg = {
            "experiment": "verify_bounds",
            "checks": [check],
            "declared_eps_f": declared_eps_f,
            "noise": noise,
            "trials": 200,
            "seed": 0,
        }
        report = run_verify_bounds(cfg, str(tmp_path))
        assert report["all_pass"] is False
        assert report["checks"][0]["passed"] is False
        on_disk = json.loads((tmp_path / "report.json").read_text())
        check_witness(on_disk["checks"][0]["witness"], noise)


class TestCli:
    def write_cfg(self, tmp_path, cfg, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_grad_accuracy_exit_zero(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, grad_cfg(trials=5))
        assert main(["grad-accuracy", "--config", path, "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "records" in out and "summaries" in out

    def test_config_error_exit_two(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, grad_cfg(estimators=["newton"]))
        assert main(["grad-accuracy", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", [["optimize"], {"a": 1}], ids=["list", "object"])
    def test_non_string_experiment_exit_two(self, tmp_path, capsys, kind):
        path = self.write_cfg(tmp_path, {"experiment": kind})
        assert main(["optimize", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and '"experiment"' in err and "Traceback" not in err

    @pytest.mark.parametrize("names_field, method, budget", [
        ("budget 5", {"estimator": {"kind": "liod"}, "stepper": {"type": "line_search"}}, 5),
        ("tau must", {"estimator": {"kind": "liod"},
                      "stepper": {"type": "line_search", "tau": 2}}, 200),
        ("adaptive", {"estimator": {"kind": "gsg", "adaptive": True},
                      "stepper": {"type": "fixed"}}, 200),
        ("num_directions", {"estimator": {"kind": "liod", "num_directions": 3},
                            "stepper": {"type": "line_search"}}, 200),
        ("alpha_min=10", {"estimator": {"kind": "liod"},
                          "stepper": {"type": "line_search", "alpha_min": 10}}, 200),
        ("'alpha'", {"estimator": {"kind": "liod"},
                     "stepper": {"type": "line_search", "alpha": 0.5}}, 200),
    ])
    def test_schema_valid_but_unusable_config_exit_two(self, tmp_path, capsys,
                                                        names_field, method, budget):
        cfg = opt_cfg(methods=[{"name": "m", **method}], seeds=[0], budget=budget)
        path = self.write_cfg(tmp_path, cfg)
        assert main(["optimize", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and names_field in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, cfg", [
        ("grad-accuracy", grad_cfg(sigmas=[math.nan])),
        ("grad-accuracy", grad_cfg(sigmas=[math.inf])),
        ("grad-accuracy", grad_cfg(sigmas=[10**400])),
        ("optimize", opt_cfg(methods=[{"name": "m",
                                       "estimator": {"kind": "gsg", "sigma": math.nan},
                                       "stepper": {"type": "fixed"}}])),
        ("optimize", opt_cfg(x0=[math.nan] + [0.0] * 9)),
        ("optimize", opt_cfg(x0=[10**400] + [0.0] * 9)),
        ("verify-bounds", {"experiment": "verify_bounds", "checks": ["noise_bound"],
                           "noise": {"kind": "uniform", "bound": math.nan}}),
        ("verify-bounds", {"experiment": "verify_bounds", "checks": ["interpolation_error_bound"],
                           "sigmas": [math.inf]}),
    ], ids=["grad_sigma_nan", "grad_sigma_infinity", "grad_sigma_401_digit_int",
            "optimize_sigma_nan", "optimize_x0_nan", "optimize_x0_401_digit_int",
            "verify_noise_bound_nan", "verify_sigma_infinity"])
    def test_non_finite_config_number_exit_two(self, tmp_path, capsys, command, cfg):
        """json.dumps writes NaN and Infinity tokens, which json.load accepts
        and the schema's bounds let through, and an integer of any size, which
        no float can hold; the config loader refuses them."""
        path = self.write_cfg(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "is not finite" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, cfg", [
        ("grad-accuracy", grad_cfg(trials=2)),
        ("optimize", opt_cfg(seeds=[0], budget=100)),
        ("verify-bounds", {"experiment": "verify_bounds", "checks": ["noise_bound"]}),
    ], ids=["grad_accuracy", "optimize", "verify_bounds"])
    def test_out_at_a_file_exit_two(self, tmp_path, capsys, command, cfg):
        """--out naming a file, or a path under one, exits 2 naming the path,
        before the first task: no check runs, and nothing is written."""
        path = self.write_cfg(tmp_path, cfg)
        (tmp_path / "f").write_text("kept")
        for out, error in [("f", "[Errno 17] File exists"), ("f/o", "[Errno 20] Not a directory"),
                           ("f/o/p", "[Errno 20] Not a directory")]:
            where = str(tmp_path / out)
            assert main([command, "--config", path, "--out", where]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "Traceback" not in captured.err
            assert f"output error: {error}: '{where.removesuffix('/p')}'" in captured.err
        assert (tmp_path / "f").read_text() == "kept"

    @pytest.mark.parametrize("command, cfg, field", [
        ("grad-accuracy", grad_cfg(noise={"kind": "uniform", "bound": -1}), "bound"),
        ("optimize", opt_cfg(noise={"kind": "uniform", "bound": -1}), "bound"),
        ("verify-bounds", {"experiment": "verify_bounds",
                           "checks": ["gaussian_moment_identities", "noise_bound"],
                           "noise": {"kind": "uniform", "bound": -1}}, "bound"),
        ("grad-accuracy", grad_cfg(noise={"kind": "sinusoidal", "bound": 1e-3, "omega": 0}),
         "omega"),
        ("grad-accuracy", grad_cfg(noise={"kind": "sinusoidal", "bound": 1e-3, "omega": -5}),
         "omega"),
        ("optimize", opt_cfg(methods=[{"name": "m", "estimator": {"kind": "gsg", "sigma": 0},
                                       "stepper": {"type": "fixed"}}]), "sigma"),
        ("optimize", opt_cfg(methods=[{"name": "m",
                                       "estimator": {"kind": "gsg", "num_directions": 0},
                                       "stepper": {"type": "fixed"}}]), "num_directions"),
        ("optimize", opt_cfg(methods=[{"name": "m", "estimator": {"kind": "gsg", "theta": 0.5},
                                       "stepper": {"type": "fixed"}}]), "theta"),
        ("optimize", opt_cfg(budget=1), "budget"),
    ], ids=["grad_bound", "optimize_bound", "verify_bound_two_checks", "omega_zero",
            "omega_negative", "sigma_zero", "num_directions_zero", "gsg_theta_half",
            "budget_one"])
    def test_range_checked_by_dataclass_exit_two(self, tmp_path, capsys, command, cfg, field):
        """Ranges of the noise, estimator and stepper sections live in their
        dataclasses; each bad value still exits 2 before any output."""
        path = self.write_cfg(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, cfg, path", [
        ("grad-accuracy", grad_cfg(trials=2.0), "trials"),
        ("grad-accuracy", grad_cfg(n_factors=[2.0]), "n_factors/0"),
        ("grad-accuracy", grad_cfg(seed=3.0), "seed"),
        ("verify-bounds", {"experiment": "verify_bounds", "trials": 10.0}, "trials"),
        ("verify-bounds", {"experiment": "verify_bounds", "trials": 1.7e308}, "trials"),
        ("optimize", opt_cfg(methods=[{"name": "m",
                                       "estimator": {"kind": "gsg", "num_directions": 4.0},
                                       "stepper": {"type": "fixed"}}]),
         "methods/0/estimator/num_directions"),
        ("optimize", opt_cfg(seeds=[0.0]), "seeds/0"),
    ], ids=["grad_trials", "grad_n_factors", "grad_seed", "verify_trials",
            "verify_trials_1e308", "optimize_num_directions", "optimize_seeds"])
    def test_integral_float_at_integer_key_exit_two(self, tmp_path, capsys, command, cfg, path):
        """An integer key takes a JSON integer only: 2.0 would be used as a
        count (a TypeError) or hashed into other seeds than 2."""
        cfg_path = self.write_cfg(tmp_path, cfg)
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"invalid config at {path}: " in err and "is not of type 'integer'" in err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("budget", [10**12, MAX_BUDGET + 1], ids=["1e12", "cap_plus_one"])
    def test_budget_above_cap_exit_two(self, tmp_path, capsys, budget):
        """A budget above MAX_BUDGET exits 2, naming the limit, before any
        file is written: fixed and Adam steps end only on the budget, and a
        trace keeps every iterate."""
        cfg = opt_cfg(functions=["quad_n5"], seeds=[0], budget=budget,
                      noise={"kind": "uniform", "bound": 0.001},
                      methods=[{"name": "a", "estimator": {"kind": "gsg", "sigma": 0.01},
                                "stepper": {"type": "adam", "alpha": 0.01}}])
        path = self.write_cfg(tmp_path, cfg)
        assert main(["optimize", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"budget {budget:,} exceeds MAX_BUDGET = 1,000,000 evaluations" in err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    def test_budget_at_cap_runs(self, tmp_path):
        """The cap itself is a valid budget; this run stalls at the minimum."""
        cfg = opt_cfg(functions=["quad_n5"], seeds=[0], budget=MAX_BUDGET, x0="origin",
                      methods=[{"name": "ls", "estimator": {"kind": "gsg", "sigma": 0.01},
                                "stepper": {"type": "line_search"}}])
        path = self.write_cfg(tmp_path, cfg)
        assert main(["optimize", "--config", path, "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "trace_quad_n5__ls__s0.csv").exists()

    @pytest.mark.parametrize("name, est, n_factor, floats", [
        ("sin_n100", "gsg", 10**7, 100_000_000_100),
        ("quad_n5", "cgsg", 20_001, 1_000_050),
    ], ids=["gsg_1e7", "cgsg_cap_plus_one"])
    def test_direction_set_above_cap_exit_two(self, tmp_path, capsys, name, est, n_factor,
                                              floats):
        """A direction count whose evaluated points hold more than
        MAX_SET_FLOATS floats exits 2, naming n_factors and the limit,
        before any draw or file (a (1e9, 100) draw is 745 GiB)."""
        cfg = {"experiment": "grad_accuracy", "functions": [name], "estimators": [est],
               "sigmas": [1e-2], "trials": 1, "n_factors": [n_factor]}
        path = self.write_cfg(tmp_path, cfg)
        assert main(["grad-accuracy", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert (f"n_factors {n_factor:,}: one {est} estimate on {name} evaluates {floats:,} "
                f"floats, above MAX_SET_FLOATS = {MAX_SET_FLOATS:,}") in err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    def test_direction_set_at_cap_runs(self, tmp_path):
        """cgsg at N = 100,000 on quad_n5 evaluates 2N points of 5 floats,
        exactly MAX_SET_FLOATS; liod skips that factor, as it needs N = n."""
        cfg = {"experiment": "grad_accuracy", "functions": ["quad_n5"],
               "estimators": ["cgsg", "liod"], "sigmas": [1e-2], "trials": 1,
               "n_factors": [20_000]}
        path = self.write_cfg(tmp_path, cfg)
        assert main(["grad-accuracy", "--config", path, "--out", str(tmp_path / "o")]) == 0
        _, rows = read_csv(str(tmp_path / "o" / "records.csv"))
        assert [(r["estimator"], r["N"], r["evals"], r["status"]) for r in rows] == [
            ("cgsg", "100000", "200000", "ok")]
        assert 2 * 100_000 * 5 == MAX_SET_FLOATS

    @pytest.mark.parametrize("command, text, path", [
        ("grad-accuracy", json.dumps(grad_cfg(sigmas=[0.1, 0.01])).replace("0.01", "1e-2, 0.01"),
         "sigmas"),
        ("grad-accuracy", json.dumps(grad_cfg(estimators=["gsg", "liod", "gsg"])), "estimators"),
        ("grad-accuracy", json.dumps(grad_cfg(functions=["quad_n5", "quad_n5"])), "functions"),
        ("grad-accuracy", json.dumps(grad_cfg(n_factors=[1, 2, 1])), "n_factors"),
        ("optimize", json.dumps(opt_cfg(seeds=[0, 0])), "seeds"),
        ("optimize", json.dumps(opt_cfg(functions=["quad_n10", "quad_n10"])), "functions"),
    ], ids=["sigmas_1e-2_and_0.01", "estimators", "grad_functions", "n_factors", "seeds",
            "optimize_functions"])
    def test_repeated_list_value_exit_two(self, tmp_path, capsys, command, text, path):
        """A list whose repeat would run the same records again, with the
        same seeds, exits 2 naming its path; 1e-2 and 0.01 are one value."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"invalid config at {path}: " in err and "has non-unique elements" in err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    #: (config, key, floats drawn at once) of each verify check's array cap
    VERIFY_CAPS = {
        "noise_bound": ({"checks": ["noise_bound"], "trials": 100_000}, "trials", 10),
        "gsg_variance_domination": ({"checks": ["gsg_variance_domination"],
                                     "dimensions": [2, 5, 10], "variance_reps": 200_000},
                                    "variance_reps", 5),
    }

    @pytest.mark.parametrize("check", VERIFY_CAPS)
    def test_verify_array_above_cap_exit_two(self, tmp_path, capsys, check):
        """noise_bound draws (trials, 10) points at once, and the variance
        check a (variance_reps, n) array at its largest n <= 8; one more
        trial or rep than MAX_SET_FLOATS allows exits 2, naming the key and
        the limit, before any draw or file."""
        cfg, key, n = self.VERIFY_CAPS[check]
        cfg = {"experiment": "verify_bounds", **cfg, key: cfg[key] + 1}
        path = self.write_cfg(tmp_path, cfg)
        assert main(["verify-bounds", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert (f"{key} {cfg[key]:,}: {check} draws {cfg[key] * n:,} floats at once, "
                f"above MAX_SET_FLOATS = {MAX_SET_FLOATS:,}") in err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("check", VERIFY_CAPS)
    def test_verify_array_at_cap_runs(self, tmp_path, capsys, check):
        """The cap itself is a valid size; dimension 10 is above the
        variance check's n <= 8, so 5 sets its array's width."""
        cfg, key, n = self.VERIFY_CAPS[check]
        assert cfg[key] * n == MAX_SET_FLOATS
        path = self.write_cfg(tmp_path, {"experiment": "verify_bounds", **cfg})
        assert main(["verify-bounds", "--config", path, "--out", str(tmp_path / "o")]) == 0
        assert f"PASS {check}" in capsys.readouterr().out

    @pytest.mark.parametrize("dimensions, samples, floats", [
        ([2, 21], 200_000, 1_050_000),
        ([100_000], 200_000, 10_000_000_000),
    ], ids=["chunk_of_21", "sums_of_100000"])
    def test_moment_check_past_cap_exit_two(self, tmp_path, capsys, monkeypatch, dimensions,
                                            samples, floats):
        """The moment check draws (min(MOMENT_CHUNK, samples), n) samples at
        once and sums (n, n) arrays, at each n in ``dimensions``; past
        MAX_SET_FLOATS it exits 2, naming the key, before any draw or file."""
        monkeypatch.setattr(runners, "moment_identity_check", lambda *a, **k: pytest.fail())
        cfg = {"experiment": "verify_bounds", "checks": ["gaussian_moment_identities"],
               "dimensions": dimensions, "samples": samples}
        path = self.write_cfg(tmp_path, cfg)
        assert main(["verify-bounds", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert (f"dimensions {max(dimensions):,}: gaussian_moment_identities draws {floats:,} "
                f"floats at once, above MAX_SET_FLOATS = {MAX_SET_FLOATS:,}") in err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    def test_moment_check_at_cap_runs(self, tmp_path, capsys, monkeypatch):
        """A chunk of exactly MAX_SET_FLOATS floats, (50,000, 20), is admitted;
        a stand-in check records the dimensions instead of drawing them."""
        assert runners.MOMENT_CHUNK * 20 == MAX_SET_FLOATS
        seen = []

        def check(identity_id, n, **kwargs):
            seen.append(n)
            return bounds.MomentCheckResult(identity_id, 0.0, 0.0, 0.0, 1.0, kwargs["samples"])

        monkeypatch.setattr(runners, "moment_identity_check", check)
        path = self.write_cfg(tmp_path, {"experiment": "verify_bounds", "dimensions": [3, 20],
                                         "checks": ["gaussian_moment_identities"]})
        assert main(["verify-bounds", "--config", path, "--out", str(tmp_path / "o")]) == 0
        assert "PASS gaussian_moment_identities" in capsys.readouterr().out
        assert sorted(set(seen)) == [3, 20]

    def test_armijo_theta_below_its_limit_runs(self, tmp_path, capsys):
        """The Armijo check fixes c1 = 0.2, so theta must be below
        (1 - c1)/(2 - c1) = 0.444...; 0.44 is."""
        path = self.write_cfg(tmp_path, {"experiment": "verify_bounds", "theta": 0.44,
                                         "checks": ["armijo_decrease_guarantee"], "trials": 20})
        assert main(["verify-bounds", "--config", path, "--out", str(tmp_path / "o")]) == 0
        assert "PASS armijo_decrease_guarantee" in capsys.readouterr().out

    def test_armijo_theta_past_its_limit_exit_two(self, tmp_path, capsys, monkeypatch):
        """A theta the Armijo check cannot use exits 2, naming theta and the
        limit, before any check runs; with the check not selected it runs."""
        cfg = {"experiment": "verify_bounds", "theta": 0.45,
               "checks": ["noise_bound", "armijo_decrease_guarantee"]}
        monkeypatch.setitem(runners._CHECKS, "noise_bound", lambda *args: pytest.fail())
        path = self.write_cfg(tmp_path, cfg)
        assert main(["verify-bounds", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert ("theta 0.45: armijo_decrease_guarantee fixes c1 = 0.2 and needs theta below "
                "(1 - c1)/(2 - c1) = 0.444444") in err
        assert "Traceback" not in err and not (tmp_path / "o").exists()
        monkeypatch.undo()
        path = self.write_cfg(tmp_path, {**cfg, "checks": ["noise_bound"]})
        assert main(["verify-bounds", "--config", path, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("variable", [None, "2"], ids=["unset", "set"])
    def test_blas_threads_of_a_run(self, tmp_path, monkeypatch, variable):
        """With OPENBLAS_NUM_THREADS unset, a run uses one thread of numpy's
        bundled OpenBLAS and puts the old count back; with it set, the CLI
        leaves the count alone."""
        blas = cli._bundled_openblas()
        if blas is None:
            pytest.skip("numpy bundles no OpenBLAS here")
        get, set_threads = blas
        original = get()
        seen = []
        run = cli.run_gradient_accuracy
        monkeypatch.setattr(cli, "run_gradient_accuracy",
                            lambda cfg, out: seen.append(get()) or run(cfg, out))
        if variable is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", variable)
        set_threads(2)
        try:
            count = get()
            path = self.write_cfg(tmp_path, grad_cfg(trials=2))
            assert main(["grad-accuracy", "--config", path, "--out", str(tmp_path / "o")]) == 0
            assert seen == [1 if variable is None else count]
            assert get() == count
        finally:
            set_threads(original)

    def test_method_error_names_the_config_key(self, tmp_path, capsys):
        """A method's config error names the function by the key the config
        wrote, not by its display name."""
        path = self.write_cfg(tmp_path, opt_cfg(budget=1))
        assert main(["optimize", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "on quad_n10: budget 1" in err and "quad(n=" not in err

    def test_x0_of_wrong_dimension_exit_two(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, opt_cfg(x0=[1.0, 2.0]))
        assert main(["optimize", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "x0 has dimension 2, quad_n10 needs 10" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_subcommand_config_kind_mismatch(self, tmp_path, capsys):
        """Each subcommand names the experiment it needs, byte for byte."""
        for command, expected, cfg in [("optimize", "optimize", grad_cfg(trials=5)),
                                       ("grad-accuracy", "grad_accuracy", opt_cfg()),
                                       ("verify-bounds", "verify_bounds", opt_cfg())]:
            path = self.write_cfg(tmp_path, cfg)
            assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err == (
                f"config error: subcommand {command} needs \"experiment\": \"{expected}\", "
                f"config declares {cfg['experiment']!r}\n")

    def test_failed_verification_exit_three(self, tmp_path, capsys):
        cfg = {
            "experiment": "verify_bounds",
            "checks": ["noise_bound"],
            "declared_eps_f": 1.0e-9,
            "noise": {"kind": "uniform", "bound": 1.0e-5},
            "trials": 100,
        }
        path = self.write_cfg(tmp_path, cfg)
        assert main(["verify-bounds", "--config", path, "--out", str(tmp_path / "o")]) == 3
        out = capsys.readouterr().out
        assert "FAIL noise_bound" in out and "witness" in out

    def test_passing_verification_exit_zero(self, tmp_path, capsys):
        cfg = {
            "experiment": "verify_bounds",
            "checks": ["noise_bound"],
            "declared_eps_f": 1.0e-5,
            "noise": {"kind": "uniform", "bound": 1.0e-5},
            "trials": 100,
        }
        path = self.write_cfg(tmp_path, cfg)
        assert main(["verify-bounds", "--config", path, "--out", str(tmp_path / "o")]) == 0
        assert "PASS noise_bound" in capsys.readouterr().out

    def test_seed_override(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, grad_cfg(trials=5))
        assert main(["grad-accuracy", "--config", path, "--out",
                     str(tmp_path / "a"), "--seed", "1"]) == 0
        assert main(["grad-accuracy", "--config", path, "--out",
                     str(tmp_path / "b"), "--seed", "2"]) == 0
        capsys.readouterr()
        a = (tmp_path / "a" / "records.csv").read_bytes()
        b = (tmp_path / "b" / "records.csv").read_bytes()
        assert a != b

    def test_list_functions(self, capsys):
        assert main(["list-functions"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8
        assert any(line.startswith("quad_n5") for line in lines)

    def test_optimize_cli_smoke(self, tmp_path, capsys):
        cfg = opt_cfg(seeds=[0], budget=200)
        path = self.write_cfg(tmp_path, cfg)
        assert main(["optimize", "--config", path, "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "quad_n10/liod_ls/s0" in out
        assert os.path.exists(tmp_path / "o" / "aggregate.csv")

    def test_grad_accuracy_runtime_failure_is_failed_row(self, tmp_path, capsys):
        """At sigma = 1e300 every probe value overflows; that trial is a
        failed row with its replay seed, and the good rows are written."""
        cfg = grad_cfg(functions=["quad_n10"], estimators=["liod"],
                       sigmas=[1.0e-2, 1.0e300], trials=3)
        path = self.write_cfg(tmp_path, cfg)
        assert main(["grad-accuracy", "--config", path, "--out", str(tmp_path / "o")]) == 0
        assert "Traceback" not in capsys.readouterr().err
        _, rows = read_csv(str(tmp_path / "o" / "records.csv"))
        assert [(r["sigma"], r["status"]) for r in rows] == (
            [("0.01", "ok")] * 3 + [("1e+300", "failed")] * 3)
        for r in rows[3:]:
            assert r["seed"] and r["theta"] == "" and r["log10_theta"] == ""

    def test_grad_accuracy_non_finite_query_point_is_failed_row(self, tmp_path, capsys):
        """At sigma = 1.7e308 the probe points x + sigma u overflow to inf;
        the oracle rejects them as an evaluation failure, which the trial
        records as a failed row whose seed replays it."""
        cfg = grad_cfg(functions=["quad_n10"], estimators=["gsg"], sigmas=[1.7e308], trials=2)
        path = self.write_cfg(tmp_path, cfg)
        assert main(["grad-accuracy", "--config", path, "--out", str(tmp_path / "o")]) == 0
        assert "Traceback" not in capsys.readouterr().err
        _, rows = read_csv(str(tmp_path / "o" / "records.csv"))
        assert [r["status"] for r in rows] == ["failed", "failed"]
        fn = get_function("quad_n10")
        for r in rows:
            seed = int(r["seed"])
            x = RngStream(seed, 2).generator().uniform(-2.0, 2.0, fn.n)
            with pytest.raises(EvaluationError, match="not finite"), np.errstate(over="ignore"):
                estimate("gsg", fn.oracle(NoiseModel()), x, 1.7e308, fn.n, RngStream(seed, 1))

    @pytest.mark.parametrize("delta, theta, names", [
        (1e-300, 1e-10, "overflows"),
        (1e-6, 0.25, "N = 640,000,000"),
    ])
    def test_sample_size_beyond_limit_exit_two(self, tmp_path, capsys, delta, theta, names):
        """A sample size that overflows, or one too large to draw, is rejected
        before any draw, naming the limit."""
        cfg = {"experiment": "verify_bounds", "checks": ["gsg_sample_size"],
               "delta": delta, "theta": theta}
        path = self.write_cfg(tmp_path, cfg)
        assert main(["verify-bounds", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and names in err and "Traceback" not in err
        assert f"MAX_SAMPLE_SIZE = {MAX_SAMPLE_SIZE:,}" in err
        assert not (tmp_path / "o").exists()

    def test_grad_accuracy_non_finite_estimate_is_failed_row(self, tmp_path, capsys):
        """At sigma = 1e-310 every value is finite but the noise difference
        over sigma overflows; the non-finite estimate is a failed row."""
        cfg = grad_cfg(functions=["quad_n10"], estimators=["gsg", "liod", "cgsg"],
                       sigmas=[1.0e-310], trials=2, noise={"kind": "uniform", "bound": 0.1})
        path = self.write_cfg(tmp_path, cfg)
        assert main(["grad-accuracy", "--config", path, "--out", str(tmp_path / "o")]) == 0
        assert "Traceback" not in capsys.readouterr().err
        _, rows = read_csv(str(tmp_path / "o" / "records.csv"))
        assert [r["status"] for r in rows] == ["failed"] * 6

    def test_grad_accuracy_failed_rows_counted_in_summary(self, tmp_path, capsys):
        """A group whose trials all failed is not a group that ran none."""
        cfg = grad_cfg(functions=["quad_n10"], estimators=["liod"],
                       sigmas=[1.0e-2, 1.0e300], trials=3)
        path = self.write_cfg(tmp_path, cfg)
        assert main(["grad-accuracy", "--config", path, "--out", str(tmp_path / "o")]) == 0
        _, summaries = read_csv(str(tmp_path / "o" / "summary.csv"))
        assert [(s["sigma"], s["count"], s["skipped"], s["failed"]) for s in summaries] == [
            ("0.01", "3", "0", "0"), ("1e+300", "0", "0", "3")]

    def test_overflowing_run_prints_no_numpy_warning(self, tmp_path, capsys):
        cfg = grad_cfg(functions=["quad_n10"], estimators=["liod"],
                       sigmas=[1.0e300], trials=3)
        path = self.write_cfg(tmp_path, cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["grad-accuracy", "--config", path, "--out", str(tmp_path / "o")]) == 0
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        _, rows = read_csv(str(tmp_path / "o" / "records.csv"))
        assert [r["status"] for r in rows] == ["failed"] * 3

    def test_optimize_runtime_failure_is_failed_trace(self, tmp_path, capsys):
        cfg = opt_cfg(methods=[
            {"name": "good", "estimator": {"kind": "liod", "sigma": 1.0e-4},
             "stepper": {"type": "line_search"}},
            {"name": "huge", "estimator": {"kind": "liod", "sigma": 1.0e300},
             "stepper": {"type": "line_search"}},
        ], seeds=[0], budget=500)
        path = self.write_cfg(tmp_path, cfg)
        assert main(["optimize", "--config", path, "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "quad_n10/huge/s0: failed (objective returned a non-finite value" in out
        _, good = read_csv(str(tmp_path / "o" / "trace_quad_n10__good__s0.csv"))
        _, bad = read_csv(str(tmp_path / "o" / "trace_quad_n10__huge__s0.csv"))
        assert good[-1]["status"] != "failed" and float(good[-1]["phi"]) < 1.0e-6
        assert [r["status"] for r in bad] == ["failed"]
        assert (tmp_path / "o" / "aggregate.csv").exists()

    def test_optimize_non_finite_estimate_is_failed_trace(self, tmp_path, capsys):
        cfg = opt_cfg(methods=[{"name": "m", "estimator": {"kind": "gsg", "sigma": 1.0e-310},
                                "stepper": {"type": "fixed"}}],
                      seeds=[0], budget=200, noise={"kind": "uniform", "bound": 0.1})
        path = self.write_cfg(tmp_path, cfg)
        assert main(["optimize", "--config", path, "--out", str(tmp_path / "o")]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert ("quad_n10/m/s0: failed (gradient estimate contains non-finite entries)"
                in captured.out)
        _, rows = read_csv(str(tmp_path / "o" / "trace_quad_n10__m__s0.csv"))
        assert rows[-1]["status"] == "failed"

    @pytest.mark.parametrize("stepper", [
        {"type": "fixed", "alpha": 1.7e308},
        {"type": "line_search", "alpha0": 1.7e308, "alpha_max": 1.7e308},
    ])
    def test_optimize_iterate_overflow_is_failed_trace(self, tmp_path, capsys, stepper):
        """A step that overflows the iterate to inf, while f is still finite,
        ends the run failed at the oracle, not with a traceback."""
        cfg = opt_cfg(methods=[{"name": "m", "estimator": {"kind": "gsg", "sigma": 1.0e-2},
                                "stepper": stepper}], seeds=[0], budget=500)
        path = self.write_cfg(tmp_path, cfg)
        assert main(["optimize", "--config", path, "--out", str(tmp_path / "o")]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "quad_n10/m/s0: failed (query point at batch row 0 is not finite)" in captured.out
        _, rows = read_csv(str(tmp_path / "o" / "trace_quad_n10__m__s0.csv"))
        assert rows[-1]["status"] == "failed"

    def test_optimize_prints_stop_reason(self, tmp_path, capsys):
        cfg = opt_cfg(functions=["rosenbrock_n4"], seeds=[0], budget=2000, methods=[
            {"name": "fd", "estimator": {"kind": "fd", "sigma": 1.0e-6},
             "stepper": {"type": "fixed", "alpha": 1.0}},
        ])
        path = self.write_cfg(tmp_path, cfg)
        assert main(["optimize", "--config", path, "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "rosenbrock_n4/fd/s0: failed (sampling radius sigma=1.000e-06" in out
