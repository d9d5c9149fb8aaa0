"""End-to-end tests of the command line runner and its exit codes."""

import functools
import hashlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from pathcoupling import cli, experiments, linalg, pathio, presets, verify
from pathcoupling.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from pathcoupling.coupling import chop_rotation, rotation_monge
from pathcoupling.sde import TimeGrid, sample_brownian

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
    # under each preset's line, every parameter of its builder but d, with the signature default
    listed = {}
    for line in out.splitlines():
        if line.startswith(" "):
            listed[preset].append(line.strip())
        else:
            preset = tuple(line.split()[:2])
            listed[preset] = []
    for p in presets.available():
        params = [q for q in inspect.signature(p.builder).parameters.values() if q.name != "d"]
        assert listed[(p.kind, p.name)] == [f"{q.name} = {q.default!r}" for q in params]


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
    cfg = _write_config(tmp_path, {"src": {"preset": ["bm"]}})
    assert main(["couple", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "'src' must be an object with a 'preset' name" in capsys.readouterr().err


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
    # exp(x^2) from z0 = 3 overflows at the second step of the source's Itô map, which stops there
    cfg = _write_config(tmp_path, {"src": {"preset": "expr", "params": {"mu_expr": "exp(x*x)", "z0": 3}}})
    out = tmp_path / "out"
    rc = main(["cost", "--config", str(cfg), "--out", str(out)])  # a warning would fail the suite
    assert rc == EXIT_NUMERIC
    assert capsys.readouterr().err == (
        "error: ito_map of \"expr(d=1,sigma='1',mu='exp(x*x)',z0=3)\": drift 'expr(exp(x*x))': "
        "floating-point overflow encountered in exp (at step 1)\n")
    assert not (out / "cost.json").exists()


def _python(*args):
    """Run a fresh interpreter on ``args`` with this checkout's package importable."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def test_overflowing_run_exits_3_at_its_step_with_warnings_as_errors(tmp_path):
    cfg = _write_config(tmp_path, {"N": 50, "n_steps": 64,
                                   "src": {"preset": "expr", "params": {"mu_expr": "exp(x*x)", "z0": 3}}})
    run = _python("-W", "error", "-m", "pathcoupling.cli", "cost", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert (run.returncode, run.stdout, run.stderr) == (
        EXIT_NUMERIC, "", (
            "error: ito_map of \"expr(d=1,sigma='1',mu='exp(x*x)',z0=3)\": drift 'expr(exp(x*x))': "
            "floating-point overflow encountered in exp (at step 1)\n"))


def test_the_package_and_a_verify_run_import_no_scipy(tmp_path):
    # scipy costs a fresh process about 1 s and 70 MB; the package needs numpy only
    cfg = _write_config(tmp_path, {"N": 20, "n_steps": 16})
    code = ("import sys, pathcoupling, pathcoupling.cli\n"
            "rc = pathcoupling.cli.main(sys.argv[1:])\n"
            "print(rc, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    run = _python("-c", code, "verify", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert run.stdout.splitlines()[-1] == f"{EXIT_OK} []", run.stderr
    assert [r.name for r in pathio.read_reports_jsonl(tmp_path / "out" / "reports.jsonl")] == [
        "realized_covariation", "wiener_marginal_test"]


def test_verify_with_an_alpha_too_small_for_a_finite_threshold_exits_3(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"verify": [{"test": "wiener", "alpha": 1e-17}]})
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
    assert "error: alpha 1e-17 is too small for 3 checks" in capsys.readouterr().err
    assert not (tmp_path / "out" / "reports.jsonl").exists()


@pytest.mark.parametrize(
    "node, mu_expr",
    [
        ("Lambda", "(lambda: ().__class__.__base__.__subclasses__().__len__())() * 0 * x"),
        ("Attribute", "x.__class__"),
        ("ListComp", "sum([v for v in x])"),
        ("GeneratorExp", "minimum(x, maximum(v for v in x))"),
        ("Subscript", "x[0]"),
        ("NamedExpr", "(y := x) * 0"),
        ("keyword", "where(x > 0, x, y=1)"),
        ("Starred", "maximum(*x)"),
    ],
)
def test_expression_outside_the_allowed_syntax_exits_2_naming_it(tmp_path, capsys, node, mu_expr):
    cfg = _write_config(tmp_path, {"src": {"preset": "expr", "params": {"mu_expr": mu_expr}}})
    assert main(["couple", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert f"may not use {node} " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _inputs(fn, sizes):
    """What the runner records of ``fn``'s inputs at ``sizes``: every parameter but ``n_workers``, as JSON."""
    params = {k: p.default for k, p in inspect.signature(fn).parameters.items() if k != "n_workers"}
    return json.loads(json.dumps(params | sizes, default=dict))  # a mapping default is a JSON object


@pytest.mark.parametrize("kind", sorted(experiments.EXPERIMENTS))
def test_experiment_by_name_runs_its_function_at_its_defaults(tmp_path, kind):
    fn = experiments.EXPERIMENTS[kind]
    sizes = {"N": 1000 if kind == "tanaka" else 40}  # the adaptedness probe needs 1000 pairs
    argv = ["experiment", kind, "--N", str(sizes["N"]), "--out", str(tmp_path)]
    if "n_steps" in inspect.signature(fn).parameters:
        sizes["n_steps"] = 16
        argv += ["--n", "16"]
    assert main(argv) == EXIT_OK
    # the runner records every input but the thread count, at its default or the value given, then the result
    pathio.write_json(tmp_path / "want.json", {"kind": kind, **_inputs(fn, sizes), **fn(**sizes)})
    assert (tmp_path / f"{kind}-report.json").read_bytes() == (tmp_path / "want.json").read_bytes()


def test_every_experiment_returns_its_verdicts(tiny):
    assert set(tiny) == set(experiments.EXPERIMENTS)
    for kind, fn in experiments.EXPERIMENTS.items():
        verdicts = fn(**tiny[kind])["verdicts"]
        assert verdicts, kind
        for verdict in verdicts:
            assert set(verdict) == {"name", "value", "bound", "ok"}, (kind, verdict)
            assert isinstance(verdict["ok"], bool), (kind, verdict)


@pytest.mark.parametrize("kind", sorted(experiments.EXPERIMENTS))
def test_no_experiment_returns_one_of_its_inputs(tiny, kind):
    # the runner records the inputs; a result key that is also a parameter would hide one
    fn = experiments.EXPERIMENTS[kind]
    assert not set(fn(**tiny[kind])) & set(inspect.signature(fn).parameters)


def _experiment_report(tmp_path, kind, sizes, *flags):
    """The report bytes of ``kind`` run from a config file of ``sizes`` with ``flags``."""
    cfg = tmp_path / f"{kind}.json"
    cfg.write_text(json.dumps({"version": 1, "kind": kind, **sizes}))
    out = tmp_path / "-".join(["out", *flags])
    assert main(["experiment", str(cfg), "--out", str(out), *flags]) == EXIT_OK
    return (out / f"{kind}-report.json").read_bytes()


@pytest.mark.parametrize("kind", sorted(experiments.EXPERIMENTS))
def test_every_experiment_report_records_each_input_it_ran_with(tmp_path, tiny, kind):
    fn = experiments.EXPERIMENTS[kind]
    report, used = json.loads(_experiment_report(tmp_path, kind, tiny[kind])), _inputs(fn, tiny[kind])
    assert report["kind"] == kind and {k: report.get(k) for k in used} == used


@pytest.mark.parametrize("kind", sorted(experiments.EXPERIMENTS))
def test_an_experiment_report_has_the_same_bytes_on_one_and_two_threads(tmp_path, tiny, kind):
    one = _experiment_report(tmp_path, kind, tiny[kind], "--threads", "1")
    assert _experiment_report(tmp_path, kind, tiny[kind], "--threads", "2") == one


def test_a_chop_c_outside_its_range_exits_2_naming_c(tmp_path, capsys):
    # the chop runs on a correlation in [-1, 1]; another c is a config value, refused before anything is sampled
    assert main(["experiment", "rotation-chop-density", "--c", "1.5", "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "'c' in [-1, 1], got 1.5" in capsys.readouterr().err
    cfg = _write_config(tmp_path, {"coupling": {"constructor": "rotation_monge",
                                                "rotation": {"preset": "chop", "params": {"c": 1.5}}}})
    assert main(["couple", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err, line = capsys.readouterr().err, _line_after(cfg, "rotation", '"preset"')
    assert "must lie in [-1, 1], got 1.5" in err and f"line {line}:" in err
    assert not (tmp_path / "out").exists()


def test_chop_density_measures_against_the_requested_c():
    # the chop's running mean is within one step of c = 0.3 on every grid, so no achieved value stands in for it
    report = experiments.rotation_chop_density(c=0.3, N=50, seed=33, n_list=(16, 32))
    pair = rotation_monge(chop_rotation(0.3), sample_brownian(TimeGrid(32), 1, 50, 34))
    bracket = np.einsum("pii->p", verify.pair_covariation(pair.x, pair.y))
    assert report["mad"][1] == float(np.mean(np.abs(bracket - 0.3)))
    assert not {"achieved", "block", "c"} & set(report)  # the runner, not the function, records c


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


def test_a_chop_density_block_exits_2_with_its_line(tmp_path, capsys):
    # config v1 and CLI break: the chop has no block, in a config or as a flag
    cfg = tmp_path / "chop.json"
    cfg.write_text('{\n  "version": 1,\n  "kind": "rotation-chop-density",\n  "block": 16\n}\n')
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "takes no field 'block'" in err and "line 4" in err
    with pytest.raises(SystemExit) as stop:  # argparse's usage error
        main(["experiment", "rotation-chop-density", "--block", "16", "--out", str(tmp_path / "out")])
    assert stop.value.code == EXIT_CONFIG and "unrecognized arguments: --block 16" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize(
    "kind, args, key, value",
    [("kernel-infeasibility", ["--N", "0"], "N", 0), ("closed-form-d1", ["--n", "0"], "n_steps", 0),
     ("tanaka", ["--seed", "-1"], "seed", -1), ("rotation-invariance", ["--d", "0"], "d", 0),
     ("optimality-gap", {"probe_N": 0}, "probe_N", 0),
     ("rotation-invariance", {"d": 0}, "d", 0), ("rotation-invariance", {"n_seeds": -2}, "n_seeds", -2)],
    ids=["N-flag", "n-flag", "seed-flag", "d-flag", "probe_N-file", "d-file", "n_seeds-file"],
)
def test_an_experiment_size_below_its_least_exits_2_naming_the_field(tmp_path, capsys, monkeypatch, kind, args, key, value):
    # from flags or from a config file, as a run config's sizes are; the experiment is never called
    calls = []
    fn = experiments.EXPERIMENTS[kind]
    monkeypatch.setitem(experiments.EXPERIMENTS, kind, functools.wraps(fn)(lambda **kw: calls.append(kw)))
    head = [kind, *args]
    if isinstance(args, dict):
        cfg = tmp_path / f"{kind}.json"
        cfg.write_text(json.dumps({"version": 1, "kind": kind, **args}))
        head = [str(cfg)]
    assert main(["experiment", *head, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'{key}'" in err and repr(value) in err and "Traceback" not in err
    assert calls == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, overrides, key",
    [("verify", {"d": 2, "src": {"preset": "degenerate", "params": {"rank": -1}}}, "rank"),
     ("couple", {"d": 2, "dst": {"preset": "degenerate", "params": {"rank": -1}}}, "rank"),
     ("cost", {"closed_form": {"probe_N": 0}}, "probe_N")],
    ids=["verify-src-rank", "dst-rank", "closed_form-probe_N"],
)
def test_a_section_size_below_its_least_exits_2_naming_the_field(tmp_path, capsys, command, overrides, key):
    cfg = _write_config(tmp_path, overrides)
    line = next(i for i, text in enumerate(cfg.read_text().splitlines(), 1) if f'"{key}"' in text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'{key}'" in err and f"at least {cli._LEAST[key]}," in err and f"line {line}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["couple", "cost", "verify"])
@pytest.mark.parametrize(
    "key, value",
    [("N", "abc"), ("d", "abc"), ("N", 2.5), ("N", 0), ("N", -3), ("d", 0), ("n_steps", 0),
     ("seed", -1), ("seed", 1 << 64), ("N", True)],
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
        ("verify", {"verify": [{"test": "certificate", "window": 64}]}, "window"),  # a config v1 field, now gone
        ("couple", {"coupling": {"constructor": "rotation_monge",
                                 "rotation": {"preset": "chop", "params": {"c": 0.5, "blok": 4}}}}, "blok"),
        ("couple", {"coupling": {"constructor": "rotation_monge",  # a config v1 param, now gone
                                 "rotation": {"preset": "chop", "params": {"c": 0.5, "block": 16}}}}, "block"),
        ("couple", {"coupling": {**BASE_CONFIG["coupling"], "rotation": {"preset": "identity"}}},
         "rotation"),
    ],
    ids=["wiener-alpah", "certificate-window", "chop-blok", "chop-block", "couple_sdes-rotation"],
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
        ("verify", {"verify": [{"test": "wiener", "alpha": [0.01]}]}, "alpha", [0.01]),
        ("verify", {"verify": [{"test": "adaptedness", "k_neighbors": "5"}]}, "k_neighbors", "5"),
        ("verify", {"verify": [{"test": "adaptedness", "threshold": True}]}, "threshold", True),
        ("verify", {"verify": [{"test": "adaptedness", "k_neighbors": 5.5}]}, "k_neighbors", 5.5),
        ("verify", {"verify": [{"test": "adaptedness", "threshold": None}]}, "threshold", None),
        ("couple", {"coupling": {"constructor": "rotation_monge", "rotation": {"preset": "chop", "params": {"c": "0.5"}}}},
         "c", "0.5"),
        ("couple", {"d": 2, "src": {"preset": "degenerate", "params": {"rank": 0.5}}}, "rank", 0.5),
        ("cost", {"cost": {"kind": "lp", "p": [2]}}, "p", [2]),
        ("cost", {"closed_form": {"probe_N": 16.5}}, "probe_N", 16.5),
    ],
    ids=["alpha-str", "alpha-list", "k-str", "threshold-bool", "k-frac", "threshold-null",
         "c-str", "rank-frac", "p-list", "probe_N-frac"],
)
def test_non_numeric_field_exits_2_naming_the_key_and_line(tmp_path, capsys, command, overrides, key, value):
    cfg = _write_config(tmp_path, overrides)
    line = next(i for i, text in enumerate(cfg.read_text().splitlines(), 1) if f'"{key}"' in text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'{key}'" in err and repr(value) in err and f"line {line}" in err
    assert not (tmp_path / "out").exists()


def test_rejected_value_is_located_on_its_own_line_not_the_first_with_its_key(tmp_path, capsys):
    entries = [{"test": "adaptedness", "k_neighbors": 7}, {"test": "adaptedness", "k_neighbors": 2.5}]
    cfg = _write_config(tmp_path, {"verify": entries})
    first, bad = (i for i, text in enumerate(cfg.read_text().splitlines(), 1) if '"k_neighbors"' in text)
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'k_neighbors'" in err and f"line {bad}" in err and f"line {first}" not in err


CERTIFIED = {
    "composed_monge-sign": (1, "composed_monge", "ou", "gbm-bounded", "sign", True),
    "composed_monge-rotation-by-state": (2, "composed_monge", "gbm-bounded", "ou", "rotation-by-state", True),
    "monge_sde-rotation-by-state": (2, "monge_sde", "ou", "gbm-bounded", "rotation-by-state", True),
    "couple_sdes-rho-0.7": (1, "couple_sdes", "ou", "gbm-bounded", None, False),
}


@pytest.mark.parametrize("case", CERTIFIED)
def test_the_certificate_of_an_sde_coupling_checks_its_recovered_drivers(tmp_path, case):
    d, constructor, src, dst, rotation, passed = CERTIFIED[case]
    section = {"constructor": constructor, "rotation": {"preset": rotation}}
    if rotation is None:
        section = {"constructor": constructor, "correlation": {"preset": "const", "params": {"c": 0.7}}}
    cfg = _write_config(tmp_path, {"d": d, "n_steps": 256, "N": 200, "src": {"preset": src}, "dst": {"preset": dst},
                                   "coupling": section, "verify": [{"test": "certificate"}]})
    _cli("verify", cfg, tmp_path / "out")
    (rep,) = pathio.read_reports_jsonl(tmp_path / "out" / "reports.jsonl")
    assert rep.name == "monge_certificate" and rep.passed is passed and rep.threshold == d * linalg.MEMBERSHIP_TOL
    assert rep.statistic < 1e-14 if passed else rep.statistic > 0.5


def test_the_certificate_of_a_singular_target_diffusion_exits_3_at_its_step(tmp_path, capsys):
    # the transport runs through diag(1, 0); its y driver cannot be recovered
    coupling = {"constructor": "monge_sde", "rotation": {"preset": "identity"}}
    cfg = _write_config(tmp_path, {"d": 2, "n_steps": 16, "N": 20, "src": {"preset": "bm"}, "dst": {"preset": "degenerate"},
                                   "coupling": coupling, "verify": [{"test": "certificate"}]})
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "singular" in err and "at step 0" in err


def test_every_flag_and_size_field_is_a_parameter():
    # a field that no experiment, constructor, verify entry, cost section or run size reads is a dead flag
    fns = [*experiments.EXPERIMENTS.values(), *cli._COUPLINGS.values(), *cli._TESTS.values(), *cli._COSTS.values(),
           cli._closed_form]
    fields = {k for fn in fns for k, p in inspect.signature(fn).parameters.items() if p.kind != p.POSITIONAL_ONLY}
    fields |= set(inspect.signature(cli._top_level).parameters)  # the sizes and sections of a run config
    counts = {k for preset in presets.available() for k in preset.defaults}  # a preset's params are sizes too
    assert set(cli._OVERRIDES) <= fields and set(cli._LEAST) <= fields | counts


def test_a_covariation_window_exits_2_naming_it(tmp_path, capsys):
    # the test prices the terminal covariation only; config v1 had a window that sized nothing it reported
    cfg = _write_config(tmp_path, {"verify": [{"test": "covariation", "target": 2.0, "window": 8}]})
    line = next(i for i, text in enumerate(cfg.read_text().splitlines(), 1) if '"window"' in text)
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'covariation' takes no field 'window'; it takes: target" in err and f"line {line}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, field, misspelled", [("couple", "n_steps", "n_step"), ("cost", "closed_form", "closed_fom")])
def test_a_misspelled_top_level_field_exits_2_at_its_line_and_writes_nothing(tmp_path, capsys, command, field, misspelled):
    # no run reads it: an n_step left the grid at its default 256 steps, a closed_fom computed no closed form
    data = {(misspelled if k == field else k): v for k, v in BASE_CONFIG.items()}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(data, indent=2) + "\n")
    line = next(i for i, text in enumerate(cfg.read_text().splitlines(), 1) if f'"{misspelled}"' in text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"takes no field {misspelled!r}" in err and field in err and f"line {line}:" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["couple", "cost", "verify"])
def test_a_model_section_in_a_run_config_exits_2_at_its_line(tmp_path, capsys, command):
    # a run config's laws are src and dst; only simulate builds a 'model', from its flags
    cfg = _write_config(tmp_path, {"model": {"preset": "ou"}})
    line = next(i for i, text in enumerate(cfg.read_text().splitlines(), 1) if '"model"' in text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "takes no field 'model'" in err and f"line {line}:" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config, message",
    [({"kind": "closed-form-d2", "sigma": [[1.0]]}, "model preset 'const-matrix'"),
     ({"kind": "rho-recovery", "cases": [{"d": 2, "c": [0.5, 0.5]}]}, "correlation preset 'const'")],
    ids=["closed-form-d2-sigma", "rho-recovery-c"],
)
def test_an_experiment_preset_value_of_the_wrong_shape_exits_2(tmp_path, capsys, config, message):
    # the builder refuses it before any numerics run: a config error naming the preset, not exit 3
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"version": 1, **config}))
    assert main(["experiment", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err and "must be (2, 2)" in err
    assert not (tmp_path / "out").exists()


def _line_after(cfg, key, text):
    """The first line of ``cfg`` that holds ``text`` at or after the first that holds ``key``."""
    lines = list(enumerate(cfg.read_text().splitlines(), 1))
    start = next(i for i, line in lines if f'"{key}"' in line)
    return next(i for i, line in lines[start - 1 :] if text in line)


@pytest.mark.parametrize(
    "overrides, key, located, message",
    [({"d": 2, "coupling": {"constructor": "rotation_monge",
                            "rotation": {"preset": "matrix", "params": {"q": [[1.0]]}}}},
      "rotation", '"preset"', "constant rotation must be (2, 2), got (1, 1)"),
     ({"coupling": {"constructor": "couple_brownians",
                    "correlation": {"preset": "const", "params": {"c": [[0.5, 0.0], [0.0, 0.5]]}}}},
      "correlation", '"preset"', "constant correlation must be (1, 1), got (2, 2)")],
    ids=["matrix-q", "const-c"],
)
def test_a_preset_value_of_the_wrong_shape_exits_2_at_its_preset(tmp_path, capsys, overrides, key, located, message):
    cfg = _write_config(tmp_path, overrides)
    assert main(["couple", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err, line = capsys.readouterr().err, _line_after(cfg, key, located)
    assert message in err and f"line {line}:" in err
    assert not (tmp_path / "out").exists()


def test_an_n_steps_among_preset_params_exits_2_with_its_line(tmp_path, capsys):
    # the run's sizes set the grid; the chop is a function of the step alone and takes no n_steps (config v1 break)
    rotation = {"preset": "chop", "params": {"c": 0.5, "n_steps": 128}}
    cfg = _write_config(tmp_path, {"n_steps": 256, "coupling": {"constructor": "rotation_monge", "rotation": rotation}})
    assert main(["couple", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err, line = capsys.readouterr().err, _line_after(cfg, "rotation", '"params"')
    assert "'n_steps'" in err and f"line {line}:" in err
    assert not (tmp_path / "out").exists()


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
    [("couple", "src", "[1]"), ("couple", "correlation", '"c=1"'), ("cost", "h", "[1]"), ("couple", "dst", '{"d": 2}')],
    ids=["src-list", "correlation-string", "cost-h-list", "dst-with-d"],
)
def test_preset_params_that_are_not_an_object_exit_2_with_their_line(tmp_path, capsys, command, section, params):
    data = json.loads(json.dumps(BASE_CONFIG))
    holder = {"src": data, "dst": data, "correlation": data["coupling"], "h": data["cost"]}[section]
    holder[section] = {"preset": holder[section]["preset"], "params": "PARAMS"}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(data, indent=2).replace('"PARAMS"', params) + "\n")
    line = next(i for i, text in enumerate(cfg.read_text().splitlines(), 1) if f'"params": {params}' in text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "params" in err and f"line {line}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, key, named",
    [(16, "closed_form", "'closed_form'"), ({"probe_n": 8}, "probe_n", "'probe_n'"),
     ({"probe_N": "16"}, "probe_N", "'probe_N'")],
    ids=["number", "unknown-field", "probe_N-str"],
)
def test_closed_form_section_is_bound_like_every_other(tmp_path, capsys, section, key, named):
    cfg = _write_config(tmp_path, {"closed_form": section})
    line = next(i for i, text in enumerate(cfg.read_text().splitlines(), 1) if f'"{key}"' in text)
    assert main(["cost", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert named in err and f"line {line}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, field, value",
    [("rotation-chop-density", "n_list", 64), ("closed-form-d2", "sigma", 2.0),
     ("rho-recovery", "cases", "d=1"), ("synchronous-1d-optimality", "src_params", [["theta", 1.0]])],
    ids=["n_list-int", "sigma-float", "cases-string", "src_params-list"],
)
def test_list_or_object_field_of_another_json_type_exits_2_with_its_line(tmp_path, capsys, kind, field, value):
    cfg = tmp_path / "bad.json"
    cfg.write_text(f'{{\n  "version": 1,\n  "kind": "{kind}",\n  "{field}": {json.dumps(value)}\n}}\n')
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'{field}'" in err and "must be a JSON" in err and "line 4" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, preset",
    [
        ({"src": {"preset": "bm", "params": {"sigma": "x"}}}, "bm"),
        ({"coupling": {"constructor": "couple_brownians", "correlation": {"preset": "const", "params": {"c": "abc"}}}},
         "const"),
        ({"d": 2, "coupling": {"constructor": "rotation_monge",
                               "rotation": {"preset": "rotation-by-state", "params": {"scale": [1]}}}},
         "rotation-by-state"),
    ],
    ids=["bm-sigma-str", "const-c-str", "rotation-by-state-scale-list"],
)
def test_preset_param_of_the_wrong_type_exits_2_naming_the_preset_and_its_line(tmp_path, capsys, overrides, preset):
    cfg = _write_config(tmp_path, overrides)
    line = next(i for i, text in enumerate(cfg.read_text().splitlines(), 1) if f'"{preset}"' in text)
    assert main(["couple", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"preset '{preset}'" in err and f"line {line}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, field, message",
    [
        ({"d": 2, "dst": {"preset": "degenerate", "params": {"rank": 1.7}}}, "rank", "must be an integer, got 1.7"),
        ({"d": 2, "src": {"preset": "degenerate", "params": {"rank": 1.5}}}, "rank", "must be an integer, got 1.5"),
        ({"src": {"preset": "bm", "params": {"sigma": True}}}, "sigma", "must be a number, got True"),
        # a number in a string, as in a section field; a string that is no number is the builder's to refuse
        ({"src": {"preset": "bm", "params": {"sigma": "2"}}}, "sigma", "must be a number, got '2'"),
        ({"d": 2, "src": {"preset": "degenerate", "params": {"rank": "1"}}}, "rank", "must be a number, got '1'"),
    ],
    ids=["degenerate-dst-rank-fraction", "degenerate-rank-fraction", "bm-sigma-bool", "bm-sigma-number-str",
         "rank-str"],
)
def test_preset_param_that_is_no_number_of_its_kind_exits_2_at_its_line(tmp_path, capsys, overrides, field, message):
    cfg = _write_config(tmp_path, overrides)
    line = next(i for i, text in enumerate(cfg.read_text().splitlines(), 1) if f'"{field}"' in text)
    assert main(["couple", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"field '{field}' {message}" in err and f"line {line}" in err
    assert not (tmp_path / "out").exists()


def test_an_overflow_in_the_target_alone_names_its_kernel_and_model(tmp_path, capsys):
    dst = {"preset": "expr", "params": {"mu_expr": "1e308", "z0": 1e308}}
    cfg = _write_config(tmp_path, {"N": 20, "n_steps": 64, "dst": dst})
    assert main(["couple", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("error: ito_map of \"expr(") and "floating-point overflow" in err and "bm(" not in err


def test_preset_param_of_the_wrong_type_is_located_at_its_own_section(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"src": {"preset": "bm"}, "dst": {"preset": "bm", "params": {"sigma": "x"}}})
    src_line, dst_line = (i for i, text in enumerate(cfg.read_text().splitlines(), 1) if '"bm"' in text)
    assert main(["couple", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "preset 'bm'" in err and f"line {dst_line}" in err and f"line {src_line}" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["experiment", "simulate"])
def test_preset_value_of_the_wrong_type_outside_a_run_config_exits_2_naming_the_preset(tmp_path, capsys, command):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"version": 1, "kind": "synchronous-1d-optimality", "N": 10, "n_steps": 8,
                               "src_params": {"theta": "x"}}))
    argv = ["experiment", str(cfg)] if command == "experiment" else ["simulate", "--preset", "ou", "--param", "theta=x"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "model preset 'ou'" in err and "'x'" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value, shown", [("2", "'2'"), (True, "True")], ids=["number-str", "bool"])
def test_a_preset_param_that_is_no_number_in_an_experiment_exits_2_at_its_line(tmp_path, capsys, value, shown):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"version": 1, "kind": "synchronous-1d-optimality", "N": 10, "n_steps": 8,
                               "src_params": {"mean": 0.0, "theta": value}}, indent=2))
    line = next(i for i, text in enumerate(cfg.read_text().splitlines(), 1) if '"theta"' in text)
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"field 'theta' must be a number, got {shown}" in err and f"line {line}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["experiment", "simulate"])
def test_a_d_among_preset_params_outside_a_run_config_exits_2_naming_it(tmp_path, capsys, command):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"version": 1, "kind": "synchronous-1d-optimality", "N": 10, "n_steps": 8,
                               "src_params": {"d": 2}}))
    argv = ["experiment", str(cfg)] if command == "experiment" else ["simulate", "--preset", "bm", "--param", "d=2"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'d'" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, flag, value", [("N", "--N", 0), ("n_steps", "--n", 0), ("d", "--d", 0), ("seed", "--seed", -1)])
def test_simulate_size_below_its_least_exits_2_naming_the_field(tmp_path, capsys, key, flag, value):
    # the sizes of a run config, checked alike; argparse itself rejects a flag value that is not an integer
    assert main(["simulate", flag, str(value), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'{key}'" in err and repr(value) in err
    assert not (tmp_path / "out").exists()


def test_a_simulate_seed_past_the_binary_header_s_64_bits_exits_2_and_the_largest_is_written(tmp_path, capsys):
    assert main(["simulate", "--seed", str(1 << 64), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'seed' must be at most {(1 << 64) - 1}, got {1 << 64}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    largest = ["--seed", str((1 << 64) - 1), "--N", "2", "--n", "4", "--format", "bin"]
    assert main(["simulate", *largest, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert pathio.read_binary(tmp_path / "out" / "ensemble.bin").seed == (1 << 64) - 1


@pytest.mark.parametrize("threads", [0, -3])
@pytest.mark.parametrize("command", ["simulate", "couple", "experiment"])
def test_a_thread_count_below_one_exits_2_naming_the_flag(tmp_path, capsys, command, threads):
    head = {"simulate": ["simulate"], "couple": ["couple", "--config", str(_write_config(tmp_path))],
            "experiment": ["experiment", "tanaka"]}[command]
    assert main(head + ["--threads", str(threads), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--threads" in err and str(threads) in err
    assert not (tmp_path / "out").exists()


def test_a_chop_run_writes_the_bytes_of_the_library_rotation_integral(tmp_path):
    # the chopped coupling has one path: rotation_monge of a Brownian driver by the chop schedule
    rotation = {"preset": "chop", "params": {"c": 0.5}}
    sizes = {"d": 1, "n_steps": 64, "N": 50, "seed": 9}
    cfg = _write_config(tmp_path, {**sizes, "coupling": {"constructor": "rotation_monge", "rotation": rotation}})
    assert main(["couple", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    pair = rotation_monge(chop_rotation(0.5), sample_brownian(TimeGrid(64), 1, 50, 9))
    pathio.write_binary(tmp_path / "library.bin", pair)
    assert (tmp_path / "out" / "coupled.bin").read_bytes() == (tmp_path / "library.bin").read_bytes()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["constructor"] == "rotation_monge" and manifest["rotation"] == "chop(c=0.5)"
    assert not {"requested_c", "achieved_c", "block", "duty_cycle_quantized"} & set(manifest)


@pytest.mark.parametrize(
    "kind, field, value, shown",
    [("closed-form-d2", "sigma", [["a", 0], [0, 1]], "'a'"), ("closed-form-d2", "sigma_bar", [[1, 0], [0, True]], "True"),
     ("rotation-chop-density", "n_list", [256, 1024.5], "1024.5"), ("rotation-chop-density", "n_list", [256, [None]], "None")],
    ids=["sigma-str", "sigma_bar-bool", "n_list-frac", "n_list-null"],
)
def test_list_field_entry_that_is_not_a_number_exits_2_with_its_line(tmp_path, capsys, kind, field, value, shown):
    cfg = tmp_path / "bad.json"
    cfg.write_text(f'{{\n  "version": 1,\n  "kind": "{kind}",\n  "{field}": {json.dumps(value)}\n}}\n')
    assert main(["experiment", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'{field}'" in err and "must be a" in err and shown in err and "line 4" in err
    assert not (tmp_path / "out").exists()


def test_list_field_entries_are_cast_to_the_type_of_the_default(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps({"version": 1, "kind": "closed-form-d2", "sigma": [[2, 0], [0, 1]]}))
    cfg = cli.load_config(path)
    section = {k: v for k, v in cfg.data.items() if k != "version"}
    assert cli._bind(cfg, experiments.EXPERIMENTS, section, "experiment", "kind")[1]["sigma"] == [[2.0, 0.0], [0.0, 1.0]]
    section = {"kind": "rotation-chop-density", "n_list": [64.0, 128]}
    n_list = cli._bind(cfg, experiments.EXPERIMENTS, section, "experiment", "kind")[1]["n_list"]
    assert n_list == [64, 128] and all(type(n) is int for n in n_list)


# ---------------------------------------------------------------------------
# verify and cost read the ensemble couple left in --out when it is the run's


@pytest.fixture
def builds(monkeypatch):
    """The configs ``cli.build_coupled`` is called with, in order."""
    calls = []
    build = cli.build_coupled
    monkeypatch.setattr(cli, "build_coupled", lambda cfg, **kw: calls.append(cfg) or build(cfg, **kw))
    return calls


def _cli(command, cfg, out, *flags):
    assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == EXIT_OK


REUSE_VERIFY = [{"test": "wiener", "side": "x"}, {"test": "wiener", "side": "y"},
                {"test": "covariation", "target": 0.5}, {"test": "certificate"},
                {"test": "adaptedness"}]
REUSE_COSTS = {"lp": ({"kind": "lp"}, None), "separable": ({"kind": "separable", "h": {"preset": "l2"}}, None),
               "separable-closed_form": ({"kind": "separable"}, {"probe_N": 16})}
REUSE_COUPLINGS = {
    "couple_sdes": {"constructor": "couple_sdes", "correlation": {"preset": "const", "params": {"c": 0.5}}},
    "composed_monge": {"constructor": "composed_monge", "rotation": {"preset": "identity"}},
}


@pytest.mark.parametrize("constructor", REUSE_COUPLINGS)
@pytest.mark.parametrize("d", [1, 2])
def test_a_reused_ensemble_gives_the_bytes_of_a_fresh_build(tmp_path, builds, d, constructor):
    # a read-back is laid out as a fresh build is; path-major storage moves the last digit of
    # the covariation, certificate and lp statistics
    cfg = _write_config(tmp_path, {"d": d, "n_steps": 64, "N": 1000, "verify": REUSE_VERIFY,
                                   "coupling": REUSE_COUPLINGS[constructor],
                                   "src": {"preset": "ou", "params": {"theta": 1.0}}})
    _cli("couple", cfg, tmp_path / "reuse")
    _cli("verify", cfg, tmp_path / "reuse")
    _cli("verify", cfg, tmp_path / "fresh")
    assert len(builds) == 2  # couple's and the fresh verify's
    reports = (tmp_path / "fresh" / "reports.jsonl").read_bytes()
    assert (tmp_path / "reuse" / "reports.jsonl").read_bytes() == reports
    assert [r.name for r in pathio.read_reports_jsonl(tmp_path / "fresh" / "reports.jsonl")] == [
        "wiener_marginal_test", "wiener_marginal_test", "realized_covariation", "monge_certificate",
        "adaptedness_probe"]
    for name, (cost_section, closed_form) in REUSE_COSTS.items():
        cfg = _write_config(tmp_path, {**json.loads(cfg.read_text()), "cost": cost_section, "closed_form": closed_form})
        _cli("cost", cfg, tmp_path / "reuse")
        _cli("cost", cfg, tmp_path / "fresh")
        assert (tmp_path / "reuse" / "cost.json").read_bytes() == (tmp_path / "fresh" / "cost.json").read_bytes(), name
    assert len(builds) == 2 + len(REUSE_COSTS)


def test_couple_then_verify_and_cost_build_once(tmp_path, builds):
    cfg = _write_config(tmp_path)
    _cli("couple", cfg, tmp_path / "out", "--threads", "1")
    _cli("verify", cfg, tmp_path / "out", "--threads", "2")  # the thread count changes no byte
    _cli("cost", cfg, tmp_path / "out")
    assert len(builds) == 1
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    blob = (tmp_path / "out" / "coupled.bin").read_bytes()
    assert manifest["bin_sha256"] == hashlib.sha256(blob).hexdigest() and len(manifest["run_sha256"]) == 64


def test_cost_binds_its_sections_before_it_builds(tmp_path, builds, capsys):
    cfg = _write_config(tmp_path, {"cost": {"kind": "nope"}})
    assert main(["cost", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "'nope'" in capsys.readouterr().err and builds == []
    cfg = _write_config(tmp_path, {"cost": {"kind": "lp"}})  # a closed form of an Lp cost
    assert main(["cost", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "separable costs only" in capsys.readouterr().err and builds == []


def _flip_last_byte(out):
    blob = bytearray((out / "coupled.bin").read_bytes())
    blob[-1] ^= 1
    (out / "coupled.bin").write_bytes(bytes(blob))


def _truncate(out):
    (out / "coupled.bin").write_bytes((out / "coupled.bin").read_bytes()[:-8])


def _strip_digests(out):
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["run_sha256"], manifest["bin_sha256"]
    (out / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize(
    "change, couple_flags, verify_flags, edit",
    [({"seed": 10}, (), (), None),
     (None, (), ("--seed", "10"), None),
     ({"dst": {"preset": "bm", "params": {"sigma": 1.5}}}, (), (), None),
     (None, ("--format", "csv"), (), None),
     (None, ("--format", "json"), (), None),
     (None, (), (), _flip_last_byte),
     (None, (), (), _truncate),
     (None, (), (), _strip_digests)],
    ids=["seed", "seed-flag", "preset-param", "format-csv", "format-json", "flipped-byte", "truncated",
         "manifest-without-digests"],
)
def test_a_stale_altered_or_missing_ensemble_is_built_again(tmp_path, builds, change, couple_flags, verify_flags, edit):
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    _cli("couple", _write_config(tmp_path), out, *couple_flags)
    if edit is not None:
        edit(out)
    cfg = _write_config(tmp_path, change, name="verify.json")
    _cli("verify", cfg, out, *verify_flags)
    assert len(builds) == 2
    _cli("verify", cfg, fresh, *verify_flags)
    assert (out / "reports.jsonl").read_bytes() == (fresh / "reports.jsonl").read_bytes()


@pytest.mark.parametrize(
    "command, overrides, literal",
    [("couple", {"dst": {"preset": "bm", "params": {"sigma": 7.25}}}, "NaN"),
     ("verify", {"verify": [{"test": "covariation", "target": 7.25}]}, "Infinity"),
     ("couple", {"src": {"preset": "bm", "params": {"sigma": 7.25}}}, "1e999"),
     ("simulate", None, "NaN"),
     ("couple", {"src": {"preset": "bm", "params": {"sigma": 7.25}}}, "1" + "0" * 400),
     ("couple", {"N": 7.25}, "1" + "0" * 400)],
    ids=["nan-preset-param", "infinite-covariation-target", "overflowing-literal", "nan-simulate-param",
         "huge-integer-preset-param", "huge-integer-size"],
)
def test_a_number_that_is_not_finite_exits_2_where_it_was_written(tmp_path, capsys, command, overrides, literal):
    # json reads NaN, Infinity and 1e999 as floats; each used to run and fail late with exit 3 and no line,
    # and an integer too large for a float ended in an OverflowError's traceback
    if command == "simulate":
        argv, where = ["simulate", "--param", f"sigma={literal}"], f"'sigma={literal}'"
    else:
        cfg = _write_config(tmp_path, overrides)
        cfg.write_text(cfg.read_text().replace("7.25", literal))
        line = next(i for i, text in enumerate(cfg.read_text().splitlines(), 1) if literal in text)
        argv, where = [command, "--config", str(cfg)], f"line {line}:"
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{literal} is not a finite number" in err and where in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "entry, n_pairs, key, message",
    [({"test": "adaptedness", "k_neighbors": 4}, 1000, "k_neighbors", "must be a positive odd count, got 4"),
     ({"test": "adaptedness", "k_neighbors": -3}, 1000, "k_neighbors", "must be a positive odd count, got -3"),
     ({"test": "adaptedness"}, 999, "N", "needs a run 'N' of at least 1000, got 999")],
    ids=["even-k", "negative-k", "too-few-pairs"],
)
def test_an_adaptedness_entry_out_of_the_probes_range_exits_2_at_its_line(tmp_path, capsys, builds, entry, n_pairs,
                                                                            key, message):
    cfg = _write_config(tmp_path, {"N": n_pairs, "n_steps": 16, "verify": [entry]})
    line = next(i for i, text in enumerate(cfg.read_text().splitlines(), 1) if f'"{key}"' in text)
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err and f"line {line}:" in err
    assert not (tmp_path / "out").exists() and builds == []  # refused before the pair was built


@pytest.mark.parametrize(
    "entry, key, message",
    [({"test": "wiener", "side": "z"}, "side", "wiener test side must be 'x' or 'y', got 'z'"),
     ({"test": "covariation", "target": [[1.0, 0.0]]}, "target", "'target' must be a number or a 2 x 2 list")],
    ids=["wiener-side", "covariation-target-row"],
)
def test_a_verify_entry_is_refused_at_its_line_before_the_pair_is_built(tmp_path, capsys, builds, entry, key, message):
    # d comes from the run config's sizes, not from the pair
    cfg = _write_config(tmp_path, {"d": 2, "verify": [{"test": "wiener"}, entry]})
    line = next(i for i, text in enumerate(cfg.read_text().splitlines(), 1) if f'"{key}"' in text)
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err and f"line {line}:" in err
    assert not (tmp_path / "out").exists() and builds == []


@pytest.mark.parametrize("source", ["flag", "config"])
def test_tanaka_with_fewer_pairs_than_its_probe_needs_exits_2_naming_n(tmp_path, capsys, source):
    cfg = tmp_path / "tanaka.json"
    cfg.write_text(json.dumps({"version": 1, "kind": "tanaka", "N": 999, "n_steps": 16}))
    argv = ["experiment", "tanaka", "--N", "999", "--n", "16"] if source == "flag" else ["experiment", str(cfg)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "needs N >= 1000, got 999" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [-1, 1 << 64])
@pytest.mark.parametrize("command", ["couple", "cost", "verify"])
def test_a_seed_flag_out_of_range_is_reported_against_the_flag_not_the_config_line(tmp_path, capsys, command, value):
    # the file's own "seed": 9 is valid; the value the message names is the flag's, which no line holds
    cfg = _write_config(tmp_path)
    argv = [command, "--config", str(cfg), "--seed", str(value), "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--seed: " in err and "field 'seed' must be" in err and f"got {value}" in err
    assert "line " not in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, flag, value", [("N", "--N", 0), ("n_steps", "--n", 0), ("d", "--d", 0), ("seed", "--seed", -1)])
def test_a_size_flag_over_an_experiment_file_is_reported_against_the_flag(tmp_path, capsys, monkeypatch, key, flag, value):
    calls = []
    fn = experiments.EXPERIMENTS["rotation-invariance"]
    monkeypatch.setitem(experiments.EXPERIMENTS, "rotation-invariance", functools.wraps(fn)(lambda **kw: calls.append(kw)))
    cfg = tmp_path / "ri.json"
    cfg.write_text(json.dumps({"version": 1, "kind": "rotation-invariance", "N": 50, "n_steps": 16, "d": 2, "seed": 3}, indent=2))
    assert main(["experiment", str(cfg), flag, str(value), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{flag}: " in err and f"field '{key}' must be at least" in err and f"got {value}" in err
    assert "line " not in err and "Traceback" not in err
    assert calls == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, flag, text",
    [("closed-form-d1", "--a", "nan"), ("optimality-gap", "--b", "inf"), ("rotation-chop-density", "--c", "-inf"),
     ("closed-form-d1", "--a", "1e999"), ("optimality-gap", "--a", "-nan")],
)
def test_a_non_finite_float_flag_exits_2_naming_the_flag(tmp_path, capsys, monkeypatch, kind, flag, text):
    # as a NaN or an infinity in a config file is, before the experiment runs
    calls = []
    fn = experiments.EXPERIMENTS[kind]
    monkeypatch.setitem(experiments.EXPERIMENTS, kind, functools.wraps(fn)(lambda **kw: calls.append(kw)))
    assert main(["experiment", kind, f"{flag}={text}", "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {kind}: {flag}: " in err and "is not a finite number" in err and "Traceback" not in err
    assert calls == [] and not (tmp_path / "out").exists()


def test_a_finite_float_flag_reaches_the_experiment_unchanged(tmp_path, monkeypatch):
    calls = []
    fn = experiments.EXPERIMENTS["optimality-gap"]
    monkeypatch.setitem(experiments.EXPERIMENTS, "optimality-gap",
                        functools.wraps(fn)(lambda **kw: calls.append(kw) or {"verdicts": []}))
    assert main(["experiment", "optimality-gap", "--a=-0.0", "--b", "0.1", "--N", "7", "--out", str(tmp_path)]) == EXIT_OK
    (kw,) = calls
    assert (repr(kw["a"]), repr(kw["b"]), repr(kw["N"])) == ("-0.0", "0.1", "7")
