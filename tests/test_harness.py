"""Experiment harness: configs, CSV persistence, runners, and the CLI."""

import json
import os

import pytest

from dfoline.harness.cli import main
from dfoline.harness.config import ConfigError, config_hash, load_config, validate_config
from dfoline.harness.csvio import read_csv, record_seed, write_csv
from dfoline.harness.runners import (
    run_gradient_accuracy,
    run_optimization,
    run_verify_bounds,
)


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

    def test_lf_line_endings_and_hash_line(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a"], [{"a": 1}], "abc123")
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"# config_sha256=abc123\n")


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

    def test_config_hash_key_order_invariant(self):
        a = {"b": 1, "a": [1, 2]}
        b = {"a": [1, 2], "b": 1}
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 64
        assert config_hash(a) != config_hash({"a": [1, 2], "b": 2})


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

    def test_trace_rows_match_iteration_count(self, tmp_path):
        res = run_optimization(opt_cfg(seeds=[0]), str(tmp_path))
        for path in res["traces"]:
            _, rows = read_csv(path)
            assert [int(r["k"]) for r in rows] == list(range(len(rows)))
            assert rows[-1]["status"] in ("noise_floor", "budget_exhausted", "converged")


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

    def test_noise_bound_negative_control(self, tmp_path):
        """Declaring a smaller eps_f than the oracle actually emits must
        flip the noise check to FAIL and serialize a witness point."""
        cfg = {
            "experiment": "verify_bounds",
            "checks": ["noise_bound"],
            "declared_eps_f": 1.0e-9,
            "noise": {"kind": "uniform", "bound": 1.0e-5},
            "trials": 200,
            "seed": 0,
        }
        report = run_verify_bounds(cfg, str(tmp_path))
        assert report["all_pass"] is False
        check = report["checks"][0]
        assert check["passed"] is False
        assert check["witness"]["abs_eps"] > 1.0e-9
        assert len(check["witness"]["x"]) >= 1


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

    def test_x0_of_wrong_dimension_exit_two(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, opt_cfg(x0=[1.0, 2.0]))
        assert main(["optimize", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "x0 has dimension 2, quad_n10 needs 10" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_subcommand_config_kind_mismatch(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, grad_cfg(trials=5))
        assert main(["optimize", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "optimize" in capsys.readouterr().err

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

    def test_optimize_prints_stop_reason(self, tmp_path, capsys):
        cfg = opt_cfg(functions=["rosenbrock_n4"], seeds=[0], budget=2000, methods=[
            {"name": "fd", "estimator": {"kind": "fd", "sigma": 1.0e-6},
             "stepper": {"type": "fixed", "alpha": 1.0}},
        ])
        path = self.write_cfg(tmp_path, cfg)
        assert main(["optimize", "--config", path, "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "rosenbrock_n4/fd/s0: failed (sampling radius sigma=1.000e-06" in out
