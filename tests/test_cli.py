"""End-to-end tests of the command line runner and its exit codes."""

import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from pathcoupling import experiments, pathio
from pathcoupling.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main

BASE_CONFIG = {
    "version": 1,
    "d": 1,
    "n_steps": 128,
    "N": 400,
    "seed": 9,
    "src": {"preset": "bm", "params": {"sigma": 2.0}},
    "dst": {"preset": "bm", "params": {"sigma": 1.0}},
    "coupling": {
        "constructor": "couple_sdes",
        "correlation": {"preset": "const", "params": {"c": 1.0}},
    },
    "cost": {"kind": "separable", "h": {"preset": "zero"}, "g": {"preset": "identity"}},
    "closed_form": {"probe_N": 16},
    "verify": [
        {"test": "covariation", "target": 2.0},
        {"test": "wiener", "side": "y"},
    ],
}


def _write_config(tmp_path, overrides=None, name="run.json"):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (overrides or {}).items():
        cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return path


def test_list_presets_mentions_every_kind(capsys):
    assert main(["list-presets"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("bm", "ou", "gbm-bounded", "const-matrix", "rotation-by-state"):
        assert name in out
    assert sum(line.startswith("model") for line in out.splitlines()) >= 5


def test_simulate_writes_binary_and_csv(tmp_path):
    rc = main([
        "simulate", "--preset", "bm", "--d", "2", "--n", "32", "--N", "11",
        "--seed", "7", "--out", str(tmp_path),
    ])
    assert rc == EXIT_OK
    bin_back = pathio.read_binary(tmp_path / "ensemble.bin")
    csv_back = pathio.read_csv(tmp_path / "ensemble.csv")
    assert bin_back.values.shape == (11, 33, 2)
    assert np.array_equal(bin_back.values, csv_back.values)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 7 and manifest["N"] == 11


def test_simulate_format_flag_restricts_artifacts(tmp_path):
    rc = main([
        "simulate", "--n", "16", "--N", "3", "--out", str(tmp_path), "--format", "bin",
    ])
    assert rc == EXIT_OK
    assert (tmp_path / "ensemble.bin").exists()
    assert not (tmp_path / "ensemble.csv").exists()
    assert not (tmp_path / "manifest.json").exists()


def test_malformed_json_reports_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "version": 1,\n  "d": 1,\n  "oops"\n}\n')
    rc = main(["couple", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "line 5" in err


def test_unknown_preset_exits_2_and_names_alternatives(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"src": {"preset": "nope"}})
    rc = main(["couple", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "nope" in err and "bm" in err
    # the diagnostic points into the config file
    assert "line" in err


def test_inadmissible_correlation_exits_3(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"coupling": {"constructor": "couple_sdes",
                      "correlation": {"preset": "const", "params": {"c": 1.5}}}},
    )
    rc = main(["couple", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_NUMERIC
    assert "admissible" in capsys.readouterr().err


def test_couple_outputs_are_byte_identical_across_threads(tmp_path):
    cfg = _write_config(tmp_path)
    for sub, threads in (("r1", "1"), ("r2", "2"), ("r3", "1")):
        out = tmp_path / sub
        assert main(["couple", "--config", str(cfg), "--out", str(out),
                     "--threads", threads]) == EXIT_OK
    blob = (tmp_path / "r1" / "coupled.bin").read_bytes()
    assert (tmp_path / "r2" / "coupled.bin").read_bytes() == blob
    assert (tmp_path / "r3" / "coupled.bin").read_bytes() == blob
    text = (tmp_path / "r1" / "coupled.csv").read_text()
    assert (tmp_path / "r2" / "coupled.csv").read_text() == text


def test_cost_subcommand_reports_closed_form_gap(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    rc = main(["cost", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    payload = json.loads((tmp_path / "cost.json").read_text())
    # sigma=2 vs 1 synchronous: cost (2-1)^2 = 1, which is also the optimum
    assert payload["closed_form"]["mean"] == pytest.approx(1.0)
    assert payload["mean"] == pytest.approx(1.0, abs=5 * payload["stderr"] + 1e-12)
    assert abs(payload["gap"]) <= 5 * payload["stderr"] + 1e-12
    assert "cost[" in capsys.readouterr().out


def test_verify_subcommand_writes_reports_and_pass_lines(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS realized_covariation" in out
    assert "PASS wiener_marginal_test" in out
    reports = pathio.read_reports_jsonl(tmp_path / "reports.jsonl")
    assert [r.name for r in reports] == ["realized_covariation", "wiener_marginal_test"]
    assert all(r.passed for r in reports)


def test_experiment_closed_form_d1_small_sizes(tmp_path):
    rc = main([
        "experiment", "closed-form-d1", "--N", "500", "--n", "128",
        "--out", str(tmp_path), "--check",
    ])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "closed-form-d1-report.json").read_text())
    assert report["closed_form"] == pytest.approx(1.0)
    assert report["estimate"] == pytest.approx(1.0, abs=5 * report["stderr"])


def test_experiment_override_changes_oracle(tmp_path):
    rc = main([
        "experiment", "closed-form-d1", "--a", "3", "--N", "400", "--n", "64",
        "--out", str(tmp_path), "--check",
    ])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "closed-form-d1-report.json").read_text())
    assert report["oracle"] == pytest.approx(4.0)
    assert report["closed_form"] == pytest.approx(4.0)


def test_failing_check_exits_4(tmp_path, capsys):
    # a coarser second resolution: its bracket deviation grows, so 'mad_decreasing' fails
    cfg = tmp_path / "doomed.json"
    cfg.write_text(json.dumps({
        "version": 1,
        "kind": "rotation-chop-density",
        "N": 200,
        "n_list": [1024, 64],
    }))
    rc = main(["experiment", str(cfg), "--out", str(tmp_path), "--check"])
    assert rc == EXIT_CHECK
    assert "CHECK FAIL" in capsys.readouterr().out
    # without --check the same run succeeds and still writes the report
    assert main(["experiment", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "doomed-report.json").exists()


def test_unknown_experiment_exits_2_listing_names(capsys):
    rc = main(["experiment", "no-such-thing"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "no-such-thing" in err and "closed-form-d1" in err and "tanaka" in err


def test_experiment_reports_are_deterministic(tmp_path):
    for sub in ("e1", "e2"):
        assert main(["experiment", "kernel-infeasibility", "--N", "200", "--n", "64",
                     "--out", str(tmp_path / sub)]) == EXIT_OK
    r1 = (tmp_path / "e1" / "kernel-infeasibility-report.json").read_bytes()
    r2 = (tmp_path / "e2" / "kernel-infeasibility-report.json").read_bytes()
    assert r1 == r2


def test_cost_with_non_finite_result_exits_3_and_writes_no_report(tmp_path, capsys):
    # exp(x^2) from z0 = 3 overflows: mean inf, stderr nan, which JSON cannot hold
    cfg = _write_config(tmp_path, {"src": {"preset": "expr", "params": {"mu_expr": "exp(x*x)", "z0": 3}}})
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning):
        rc = main(["cost", "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_NUMERIC
    assert "cost.json" in capsys.readouterr().err
    assert not (out / "cost.json").exists()


def test_every_shipped_config_matches_its_experiment_function():
    config_dir = Path(experiments.__file__).parent / "experiments"
    configs = sorted(config_dir.glob("*.json"))
    assert len(configs) == len(experiments.EXPERIMENTS)
    for path in configs:
        data = json.loads(path.read_text())
        fn = experiments.EXPERIMENTS[data["kind"]]
        params = set(inspect.signature(fn).parameters) - {"n_workers"}
        fields = set(data) - {"version", "kind"}
        assert fields <= params, f"{path.name}: {sorted(fields - params)} not taken by {fn.__name__}"


def test_every_experiment_returns_its_verdicts():
    tiny = {
        "closed-form-d1": dict(N=50, n_steps=16, probe_N=4),
        "closed-form-d2": dict(N=50, n_steps=16, probe_N=4, grid_points=100),
        "rotation-invariance": dict(N=50, n_steps=16, n_seeds=2),
        "tanaka": dict(N=1000, n_steps=64, window=16),
        "rho-recovery": dict(cases=[{"d": 1, "c": 0.5}], N=50, n_steps=16),
        "rotation-chop-density": dict(N=50, n_list=(16, 32), block=4),
        "kernel-infeasibility": dict(N=50, n_steps=16),
        "synchronous-1d-optimality": dict(N=50, n_steps=16),
    }
    assert set(tiny) == set(experiments.EXPERIMENTS)
    for kind, fn in experiments.EXPERIMENTS.items():
        verdicts = fn(**tiny[kind])["verdicts"]
        assert verdicts, kind
        for verdict in verdicts:
            assert set(verdict) == {"name", "value", "bound", "ok"}, (kind, verdict)
            assert isinstance(verdict["ok"], bool), (kind, verdict)


def test_config_with_a_checks_array_exits_2_with_its_line(tmp_path, capsys):
    cfg = tmp_path / "old.json"
    cfg.write_text('{\n  "version": 1,\n  "kind": "kernel-infeasibility",\n'
                   '  "checks": [{"check": "le", "field": "residual_invertible", "bound": 0.0}]\n}\n')
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "out"), "--check"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'checks'" in err and "line 4" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "case",
    [{"d": 1}, {"d": 1, "c": 0.5, "theta": 1}, {"c": 0.5}, {"d": 1.5, "c": 0.5}, [1, 0.5]],
    ids=["no-c", "c-and-theta", "no-d", "fractional-d", "list"],
)
def test_rho_recovery_case_of_another_shape_exits_2_naming_it(tmp_path, capsys, case):
    cfg = tmp_path / "rho.json"
    cfg.write_text(json.dumps({"version": 1, "kind": "rho-recovery", "N": 50, "n_steps": 16,
                               "cases": [{"d": 1, "c": 0.5}, case]}))
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert repr(case) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_inapplicable_override_exits_2_naming_the_field(tmp_path, capsys):
    rc = main(["experiment", "tanaka", "--a", "3", "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert "'a'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_unknown_config_field_exits_2_with_its_line(tmp_path, capsys):
    cfg = tmp_path / "typo.json"
    cfg.write_text('{\n  "version": 1,\n  "kind": "kernel-infeasibility",\n  "n_step": 64\n}\n')
    assert main(["experiment", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'n_step'" in err and "line 4" in err


@pytest.mark.parametrize(
    "kind, field",
    [("rotation-invariance", '"n_seeds": 0'), ("rotation-chop-density", '"n_list": []')],
    ids=["no-seeds", "no-resolutions"],
)
def test_empty_experiment_size_list_exits_2(tmp_path, capsys, kind, field):
    cfg = tmp_path / "empty.json"
    cfg.write_text(f'{{\n  "version": 1,\n  "kind": "{kind}",\n  {field}\n}}\n')
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert kind in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["couple", "cost", "verify"])
@pytest.mark.parametrize(
    "key, value",
    [("N", "abc"), ("d", "abc"), ("N", 2.5), ("N", 0), ("N", -3), ("d", 0), ("n_steps", 0),
     ("seed", -1), ("N", True)],
)
def test_non_integer_size_exits_2_naming_the_key_and_line(tmp_path, capsys, command, key, value):
    cfg = _write_config(tmp_path, {key: value})
    line = next(i for i, text in enumerate(cfg.read_text().splitlines(), 1) if f'"{key}"' in text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'{key}'" in err and repr(value) in err and f"line {line}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, overrides, key",
    [
        ("verify", {"verify": [{"test": "wiener", "alpah": 0.5}]}, "alpah"),
        ("verify", {"verify": [{"test": "certificate", "windw": 32}]}, "windw"),
        ("couple", {"coupling": {"constructor": "rotation_chop", "c": 0.5, "blok": 4}}, "blok"),
        ("couple", {"coupling": {**BASE_CONFIG["coupling"], "rotation": {"preset": "identity"}}},
         "rotation"),
    ],
    ids=["wiener-alpah", "certificate-windw", "rotation_chop-blok", "couple_sdes-rotation"],
)
def test_unknown_coupling_or_verify_field_exits_2_with_its_line(tmp_path, capsys, command, overrides, key):
    cfg = _write_config(tmp_path, overrides)
    line = next(i for i, text in enumerate(cfg.read_text().splitlines(), 1) if f'"{key}"' in text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'{key}'" in err and f"line {line}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "cost_section, key, named",
    [({"kind": "lp", "pp": 3}, "pp", "'pp'"), ({"kind": "separable", "f": {}}, "f", "'f'"),
     ({"kind": "l2"}, "kind", "'l2'")],
    ids=["lp-pp", "separable-f", "unknown-kind"],
)
def test_unknown_cost_field_or_kind_exits_2_with_its_line(tmp_path, capsys, cost_section, key, named):
    cfg = _write_config(tmp_path, {"cost": cost_section})
    line = next(i for i, text in enumerate(cfg.read_text().splitlines(), 1) if f'"{key}"' in text)
    assert main(["cost", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert named in err and f"line {line}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, overrides, key, value",
    [
        ("verify", {"verify": [{"test": "wiener", "alpha": "x"}]}, "alpha", "x"),
        ("verify", {"verify": [{"test": "covariation", "target": 2.0, "window": 2.5}]}, "window", 2.5),
        ("verify", {"verify": [{"test": "certificate", "window": "64"}]}, "window", "64"),
        ("verify", {"verify": [{"test": "certificate", "tol": True}]}, "tol", True),
        ("verify", {"verify": [{"test": "adaptedness", "k_neighbors": 5.5}]}, "k_neighbors", 5.5),
        ("verify", {"verify": [{"test": "adaptedness", "threshold": None}]}, "threshold", None),
        ("couple", {"coupling": {"constructor": "rotation_chop", "c": "0.5"}}, "c", "0.5"),
        ("couple", {"coupling": {"constructor": "rotation_chop", "block": 2.5}}, "block", 2.5),
        ("cost", {"cost": {"kind": "lp", "p": [2]}}, "p", [2]),
        ("cost", {"closed_form": {"probe_N": 16.5}}, "probe_N", 16.5),
    ],
    ids=["alpha-str", "window-frac", "window-str", "tol-bool", "k-frac", "threshold-null",
         "c-str", "block-frac", "p-list", "probe_N-frac"],
)
def test_non_numeric_field_exits_2_naming_the_key_and_line(tmp_path, capsys, command, overrides, key, value):
    cfg = _write_config(tmp_path, overrides)
    line = next(i for i, text in enumerate(cfg.read_text().splitlines(), 1) if f'"{key}"' in text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'{key}'" in err and repr(value) in err and f"line {line}" in err
    assert not (tmp_path / "out").exists()


def test_rejected_value_is_located_on_its_own_line_not_the_first_with_its_key(tmp_path, capsys):
    entries = [{"test": "covariation", "target": 2.0, "window": 8}, {"test": "certificate", "window": 2.5}]
    cfg = _write_config(tmp_path, {"verify": entries})
    first, bad = (i for i, text in enumerate(cfg.read_text().splitlines(), 1) if '"window"' in text)
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'window'" in err and f"line {bad}" in err and f"line {first}" not in err


@pytest.mark.parametrize("field, value", [("n_steps", 64.5), ("N", "1000"), ("seed", False)])
def test_non_numeric_experiment_field_exits_2_with_its_line(tmp_path, capsys, field, value):
    cfg = tmp_path / "bad.json"
    cfg.write_text(
        f'{{\n  "version": 1,\n  "kind": "kernel-infeasibility",\n  "{field}": {json.dumps(value)}\n}}\n'
    )
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'{field}'" in err and repr(value) in err and "line 4" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "target",
    [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [1.0, 0.0], [[1.0, 0.0], [0.0]], [[1.0, 0.0], [0.0, "x"]],
     "half", True, None],
    ids=["3x3-for-d2", "vector", "ragged", "string-entry", "string", "bool", "null"],
)
def test_covariation_target_that_is_not_a_number_or_d_by_d_exits_2_with_its_line(tmp_path, capsys, target):
    entries = [{"test": "wiener"}, {"test": "covariation", "target": target}]
    cfg = _write_config(tmp_path, {"d": 2, "verify": entries, "src": {"preset": "bm"}, "dst": {"preset": "bm"}})
    line = next(i for i, text in enumerate(cfg.read_text().splitlines(), 1) if '"target"' in text)
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'target'" in err and f"line {line}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, section, params",
    [("couple", "src", "[1]"), ("couple", "correlation", '"c=1"'), ("cost", "h", "[1]")],
    ids=["src-list", "correlation-string", "cost-h-list"],
)
def test_preset_params_that_are_not_an_object_exit_2_with_their_line(tmp_path, capsys, command, section, params):
    data = json.loads(json.dumps(BASE_CONFIG))
    holder = {"src": data, "correlation": data["coupling"], "h": data["cost"]}[section]
    holder[section] = {"preset": holder[section]["preset"], "params": "PARAMS"}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(data, indent=2).replace('"PARAMS"', params) + "\n")
    line = next(i for i, text in enumerate(cfg.read_text().splitlines(), 1) if f'"params": {params}' in text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "params" in err and f"line {line}" in err
    assert not (tmp_path / "out").exists()
