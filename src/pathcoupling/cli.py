"""Command line front end: simulate, couple, score and verify path ensembles.

The CLI is a thin orchestration layer over the library.  Runs are driven
by a versioned JSON config (see ``load_config``).  A named experiment is
a function in ``pathcoupling.experiments`` with its shipped sizes in a
config file under ``pathcoupling/experiments/``; ``experiment`` passes
the config's fields, after any flag overrides, to that function as
keyword arguments and rejects a field it does not take.  All parallelism
lives inside the library calls; the CLI itself never spawns workers.

Exit codes: 0 success, 2 config error (with a line-numbered diagnostic
where possible), 3 numerical/domain error, 4 failed acceptance check
under ``experiment --check``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import coupling, cost, experiments, pathio, presets, sde, verify
from .errors import ConfigError, DimensionError, DomainError
from .verify import TestReport

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CHECK = 4

CONFIG_VERSION = 1

#: the fields of the 'coupling' section each constructor takes
_COUPLING_FIELDS = {
    "couple_brownians": ("constructor", "correlation"),
    "couple_sdes": ("constructor", "correlation"),
    "rotation_monge": ("constructor", "rotation"),
    "composed_monge": ("constructor", "rotation"),
    "monge_sde": ("constructor", "rotation"),
    "tanaka": ("constructor",),
    "rotation_chop": ("constructor", "c", "block"),
}

#: the fields of a 'verify' entry each test takes
_VERIFY_FIELDS = {
    "wiener": ("test", "side", "alpha"),
    "covariation": ("test", "target", "window"),
    "certificate": ("test", "window", "tol"),
    "adaptedness": ("test", "k_neighbors", "threshold"),
}


# ---------------------------------------------------------------------------
# config plumbing


def _line_of(raw: str, key: str, text: str = ""):
    """Best-effort 1-based line of a JSON key: the first line that holds both the key
    and ``text`` (a rejected value as JSON), else the first that holds the key."""
    lines = [(i, line) for i, line in enumerate(raw.splitlines(), start=1) if f'"{key}"' in line]
    return next((i for i, line in lines if text in line), lines[0][0] if lines else None)


@dataclass
class Config:
    """A parsed config plus enough context for line-numbered diagnostics."""

    data: dict
    raw: str
    source: str

    def error(self, key, message, value_text=""):
        raise ConfigError(f"{self.source}: {message}", line=_line_of(self.raw, key, value_text))

    def rewrap(self, key, err: ConfigError):
        # attach a line number to an error raised by a lower layer
        raise ConfigError(f"{self.source}: {err}", line=_line_of(self.raw, key)) from None

    def number(self, key, value, kind=float):
        """``value`` of field ``key`` as ``kind`` (int or float); anything but a number,
        a boolean, or a non-integral value for an int is a config error naming the key."""
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.error(key, f"field {key!r} must be a number, got {value!r}", json.dumps(value))
        if kind is int and not float(value).is_integer():
            self.error(key, f"field {key!r} must be an integer, got {value!r}", json.dumps(value))
        return kind(value)

    def reject_other_fields(self, fields, allowed, what):
        """A config error naming the first of ``fields`` that is not in ``allowed``."""
        for key in fields:
            if key not in allowed:
                self.error(key, f"{what} takes no field {key!r}; it takes: {', '.join(allowed)}")


def load_config(path) -> Config:
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err.strerror}") from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: {err.msg}", line=err.lineno) from None
    cfg = Config(data=data, raw=raw, source=str(path))
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    version = data.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        cfg.error("version", f"unsupported config version {version!r} (expected {CONFIG_VERSION})")
    return cfg


def _build_preset(cfg: Config, section, kind, d, key):
    if not isinstance(section, dict) or "preset" not in section:
        cfg.error(key, f"'{key}' must be an object with a 'preset' name")
    try:
        return presets.build(kind, section["preset"], d=d, **section.get("params", {}))
    except ConfigError as err:
        cfg.rewrap(section["preset"], err)


def _require_model(cfg: Config, key, d):
    section = cfg.data.get(key)
    if section is None:
        cfg.error(key, f"config needs a '{key}' model section")
    return _build_preset(cfg, section, "model", d, key)


def _sizes(cfg: Config):
    """(d, n_steps, N, seed) of a run config; a value that is not an integer, or is
    below 1 (below 0 for the seed), is a config error."""

    def size(key, default, least=1):
        value = cfg.data.get(key, default)
        number = cfg.number(key, value, int)
        if number < least:
            cfg.error(key, f"field {key!r} must be at least {least}, got {value!r}")
        return number

    return size("d", 1), size("n_steps", 256), size("N", 1000), size("seed", 0, least=0)


def build_coupled(cfg: Config, n_workers: int = 1) -> coupling.CoupledEnsemble:
    """Construct the coupled ensemble a config describes."""
    d, n_steps, n_pairs, seed = _sizes(cfg)
    grid = sde.TimeGrid(n_steps)
    section = cfg.data.get("coupling")
    if not isinstance(section, dict) or "constructor" not in section:
        cfg.error("coupling", "config needs a 'coupling' object with a 'constructor' name")
    ctor = section["constructor"]
    if ctor not in _COUPLING_FIELDS:
        cfg.error("constructor", f"unknown coupling constructor {ctor!r}; known: {', '.join(_COUPLING_FIELDS)}")
    cfg.reject_other_fields(section, _COUPLING_FIELDS[ctor], f"coupling constructor {ctor!r}")

    def rotation():
        rot = section.get("rotation")
        if isinstance(rot, dict) and rot.get("preset") == "chop":
            rot = {**rot, "params": {"n_steps": n_steps, **rot.get("params", {})}}
        return _build_preset(cfg, rot, "rotation", d, "rotation")

    if ctor == "couple_brownians":
        rho = _build_preset(cfg, section.get("correlation"), "correlation", d, "correlation")
        return coupling.couple_brownians(rho, grid, n_pairs, seed, n_workers=n_workers)
    if ctor == "couple_sdes":
        src = _require_model(cfg, "src", d)
        dst = _require_model(cfg, "dst", d)
        rho = _build_preset(cfg, section.get("correlation"), "correlation", d, "correlation")
        return coupling.couple_sdes(src, dst, rho, grid, n_pairs, seed, n_workers=n_workers)
    if ctor == "rotation_monge":
        q = rotation()
        driver = sde.sample_brownian(grid, d, n_pairs, seed, n_workers=n_workers)
        return coupling.rotation_monge(q, driver)
    if ctor == "composed_monge":
        src = _require_model(cfg, "src", d)
        dst = _require_model(cfg, "dst", d)
        q = rotation()
        return coupling.composed_monge(src, dst, q, grid, n_pairs, seed, n_workers=n_workers)
    if ctor == "monge_sde":
        src = _require_model(cfg, "src", d)
        dst = _require_model(cfg, "dst", d)
        q = rotation()
        return coupling.monge_sde(
            dst.drift, dst.diffusion, q, src, grid, n_pairs, seed,
            z0_dst=dst.z0, n_workers=n_workers,
        )
    if ctor == "tanaka":
        if d != 1:
            cfg.error("d", "the tanaka coupling is one dimensional")
        return coupling.tanaka_coupling(grid, n_pairs, seed, n_workers=n_workers)
    c = cfg.number("c", section.get("c", 0.0))  # rotation_chop
    block = cfg.number("block", section.get("block", 16), int)
    return coupling.rotation_chop(c, grid, n_pairs, seed, block, n_workers=n_workers)


def _build_cost_spec(cfg: Config):
    """Returns (spec, src, dst); the models are None for lp costs."""
    section = cfg.data.get("cost")
    if not isinstance(section, dict) or "kind" not in section:
        cfg.error("cost", "config needs a 'cost' object with a 'kind'")
    kind = section["kind"]
    d = _sizes(cfg)[0]
    if kind == "lp":
        return cost.CostSpec.lp(cfg.number("p", section.get("p", 2.0))), None, None
    if kind == "separable":
        src = _require_model(cfg, "src", d)
        dst = _require_model(cfg, "dst", d)
        h_sec = section.get("h", {"preset": "zero"})
        g_sec = section.get("g", {"preset": "identity"})
        h_fn = _build_preset(cfg, h_sec, "h", d, "h")
        g_fn = _build_preset(cfg, g_sec, "g", d, "g")
        label = f"separable(h={h_sec.get('preset')}, g={g_sec.get('preset')})"
        return cost.CostSpec.separable(h_fn, g_fn, label=label), src, dst
    cfg.error("kind", f"unknown cost kind {kind!r}; known: separable, lp")


def _py(obj):
    """Recursively convert numpy scalars/arrays for JSON output."""
    if isinstance(obj, dict):
        return {k: _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _wants(args, fmt) -> bool:
    return args.format is None or args.format == fmt


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    params = _parse_params(args.param)
    seed = 0 if args.seed is None else args.seed
    model = presets.build("model", args.preset, d=args.d, **params)
    grid = sde.TimeGrid(args.n_steps)
    driver = sde.sample_brownian(grid, args.d, args.n_paths, seed, n_workers=args.threads)
    ens = sde.ito_map(model, driver)
    out = _out_dir(args)
    written = []
    if _wants(args, "csv"):
        pathio.write_csv(out / "ensemble.csv", ens)
        written.append("ensemble.csv")
    if _wants(args, "bin"):
        pathio.write_binary(out / "ensemble.bin", ens)
        written.append("ensemble.bin")
    if _wants(args, "json"):
        manifest = {
            "model": model.label,
            "d": args.d,
            "n_steps": args.n_steps,
            "N": args.n_paths,
            "seed": seed,
        }
        pathio.write_json(out / "manifest.json", manifest)
        written.append("manifest.json")
    print(f"simulated {args.n_paths} x {args.preset}(d={args.d}, n={args.n_steps}); wrote {', '.join(written)} to {out}")
    return EXIT_OK


def _parse_params(items):
    params = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--param expects KEY=VALUE, got {item!r}")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    return params


def cmd_couple(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.data["seed"] = args.seed
    pair = build_coupled(cfg, n_workers=args.threads)
    out = _out_dir(args)
    written = []
    if _wants(args, "csv"):
        pathio.write_csv(out / "coupled.csv", pair)
        written.append("coupled.csv")
    if _wants(args, "bin"):
        pathio.write_binary(out / "coupled.bin", pair)
        written.append("coupled.bin")
    if _wants(args, "json"):
        pathio.write_json(out / "manifest.json", _py(dict(pair.provenance)))
        written.append("manifest.json")
    prov = pair.provenance
    print(f"coupled {pair.n_pairs} pairs via {prov.get('constructor')}; wrote {', '.join(written)} to {out}")
    return EXIT_OK


def cmd_cost(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.data["seed"] = args.seed
    _, n_steps, _, seed = _sizes(cfg)
    pair = build_coupled(cfg, n_workers=args.threads)
    spec, src, dst = _build_cost_spec(cfg)
    est = cost.estimate(pair, spec, src=src, dst=dst)
    closed = None
    cf_section = cfg.data.get("closed_form")
    if cf_section is not None:
        if spec.kind != cost.SEPARABLE:
            cfg.error("closed_form", "the closed form applies to separable costs only")
        probe_n = cfg.number("probe_N", cf_section.get("probe_N", 64), int)
        probe = experiments.probe(src, n_steps, probe_n, seed + 1)
        closed, _ = cost.closed_form_optimal(src, dst, spec, probe)
    payload = pathio.cost_report(est, n_steps=n_steps, seed=seed, closed_form=closed)
    out = _out_dir(args)
    pathio.write_json(out / "cost.json", _py(payload))
    line = f"cost[{est.spec_label}] mean={est.mean:.6g} stderr={est.stderr:.3g} (N={est.n_pairs})"
    if closed is not None:
        line += f" closed-form={closed.mean:.6g} gap={est.mean - closed.mean:+.3g}"
    print(line)
    print(f"wrote {out / 'cost.json'}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.data["seed"] = args.seed
    tests = cfg.data.get("verify")
    if not isinstance(tests, list) or not tests:
        cfg.error("verify", "config needs a non-empty 'verify' list of test objects")
    pair = build_coupled(cfg, n_workers=args.threads)
    reports = [_run_verify_test(cfg, t, pair) for t in tests]
    out = _out_dir(args)
    pathio.write_reports_jsonl(out / "reports.jsonl", reports)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.name} statistic={rep.statistic:.6g} threshold={rep.threshold:.6g}")
    print(f"wrote {out / 'reports.jsonl'}")
    return EXIT_OK


def _run_verify_test(cfg: Config, t, pair) -> TestReport:
    if not isinstance(t, dict) or "test" not in t:
        cfg.error("verify", "each verify entry must be an object with a 'test' name")
    name = t["test"]
    if name not in _VERIFY_FIELDS:
        cfg.error("test", f"unknown verify test {name!r}; known: {', '.join(_VERIFY_FIELDS)}")
    cfg.reject_other_fields(t, _VERIFY_FIELDS[name], f"verify test {name!r}")
    if name == "wiener":
        side = t.get("side", "y")
        if side not in ("x", "y"):
            cfg.error("side", f"wiener test side must be 'x' or 'y', got {side!r}")
        ens = pair.x_ensemble() if side == "x" else pair.y_ensemble()
        return verify.wiener_marginal_test(ens, alpha=cfg.number("alpha", t.get("alpha", 0.01)))
    if name == "adaptedness":
        return verify.adaptedness_probe(
            pair,
            k_neighbors=cfg.number("k_neighbors", t.get("k_neighbors", 5), int),
            threshold=cfg.number("threshold", t.get("threshold", 0.75)),
        )
    window = cfg.number("window", t.get("window", verify.DEFAULT_WINDOW), int)
    if name == "certificate":
        tol = t.get("tol")
        return verify.monge_certificate(
            pair,
            window=window,
            tol=None if tol is None else cfg.number("tol", tol),
        )
    if "target" not in t:  # covariation
        cfg.error("covariation", "the covariation test needs a 'target' (scalar or d x d)")
    rep = verify.realized_covariation(pair, window=window)
    target = np.asarray(t["target"], dtype=float)
    if target.ndim == 0:
        target = float(target) * np.eye(pair.d)
    dev = float(np.max(np.abs(rep.terminal_mean - target)))
    budget = float(np.max(verify.covariation_budget(rep, pair.grid.dt)))
    return TestReport(
        name="realized_covariation",
        statistic=dev,
        threshold=budget,
        comparison="<=",
        passed=dev <= budget,
        n_paths=pair.n_pairs,
        n_steps=pair.grid.n_steps,
        seed=pair.seed,
        details={"target": target.tolist(), "terminal_mean": rep.terminal_mean.tolist()},
    )


def cmd_list_presets(_args) -> int:
    print(presets.list_presets())
    return EXIT_OK


# ---------------------------------------------------------------------------
# named experiments


def _resolve_experiment(name: str):
    path = Path(name)
    if path.suffix == ".json":
        if not path.exists():
            raise ConfigError(f"experiment config {name!r} does not exist")
        return path.stem, path
    pkg_dir = Path(__file__).parent / "experiments"
    candidate = pkg_dir / f"{name}.json"
    if candidate.exists():
        return name, candidate
    known = ", ".join(sorted(p.stem for p in pkg_dir.glob("*.json")))
    raise ConfigError(f"unknown experiment {name!r}; available: {known}")


# experiment flags, by the config field each one replaces
_OVERRIDES = ("a", "b", "N", "n_steps", "seed", "c", "block", "window", "d")


def _apply_overrides(data: dict, args) -> None:
    for key in _OVERRIDES:
        value = getattr(args, key)
        if value is not None:
            data[key] = value


def _experiment_fields(cfg: Config, kind, fn) -> dict:
    """The config's run fields, checked against ``fn``'s parameters and typed by its defaults."""
    params = dict(inspect.signature(fn).parameters)
    del params["n_workers"]
    fields = {k: v for k, v in cfg.data.items() if k not in ("version", "kind", "checks")}
    cfg.reject_other_fields(fields, params, f"experiment kind {kind!r}")
    for key, value in fields.items():
        default = params[key].default
        if type(default) in (int, float):
            fields[key] = cfg.number(key, value, type(default))
    return fields


def cmd_experiment(args) -> int:
    name, path = _resolve_experiment(args.name)
    cfg = load_config(path)
    _apply_overrides(cfg.data, args)
    kind = cfg.data.get("kind")
    fn = experiments.EXPERIMENTS.get(kind)
    if fn is None:
        known = ", ".join(sorted(experiments.EXPERIMENTS))
        cfg.error("kind", f"unknown experiment kind {kind!r}; known: {known}")
    result = _py({"kind": kind, **fn(**_experiment_fields(cfg, kind, fn), n_workers=args.threads)})
    out = _out_dir(args)
    report_path = out / f"{name}-report.json"
    pathio.write_json(report_path, result)
    print(f"wrote {report_path}")
    if not args.check:
        return EXIT_OK
    failures = _run_checks(cfg, cfg.data.get("checks", []), result)
    return EXIT_CHECK if failures else EXIT_OK


def _field(cfg: Config, result: dict, key):
    if key not in result:
        cfg.error("checks", f"check references unknown result field {key!r}")
    return result[key]


def _run_checks(cfg: Config, checks, result) -> int:
    if not isinstance(checks, list):
        cfg.error("checks", "'checks' must be a list")
    failures = 0
    for spec in checks:
        ok, desc = _eval_check(cfg, spec, result)
        print(f"CHECK {'ok  ' if ok else 'FAIL'} {desc}")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} of {len(checks)} checks failed")
    else:
        print(f"all {len(checks)} checks passed")
    return failures


def _eval_check(cfg: Config, spec, result):
    if not isinstance(spec, dict) or "check" not in spec:
        cfg.error("checks", "each check must be an object with a 'check' type")
    kind = spec["check"]
    field = spec.get("field")
    if kind == "close":
        value = float(_field(cfg, result, field))
        target = float(spec["target"]) if "target" in spec else float(_field(cfg, result, spec["target_field"]))
        tol = float(spec.get("tol", 0.0))
        if "tol_field" in spec:
            tol += float(spec.get("tol_scale", 1.0)) * float(_field(cfg, result, spec["tol_field"]))
        dev = abs(value - target)
        return dev <= tol, f"{field}={value:.6g} within {tol:.3g} of {target:.6g} (dev {dev:.3g})"
    if kind in ("le", "ge"):
        value = float(_field(cfg, result, field))
        bound = float(spec["bound"]) if "bound" in spec else float(_field(cfg, result, spec["bound_field"]))
        if "slack_field" in spec:
            bound += float(spec.get("slack_scale", 1.0)) * float(_field(cfg, result, spec["slack_field"]))
        ok = value <= bound if kind == "le" else value >= bound
        op = "<=" if kind == "le" else ">="
        return ok, f"{field}={value:.6g} {op} {bound:.6g}"
    if kind == "true":
        value = bool(_field(cfg, result, field))
        return value, f"{field} is {value}"
    if kind == "equals":
        value = _field(cfg, result, field)
        return value == spec.get("value"), f"{field}={value!r} == {spec.get('value')!r}"
    if kind == "decreasing":
        seq = list(_field(cfg, result, field))
        ok = all(b < a for a, b in zip(seq, seq[1:]))
        return ok, f"{field}={['%.4g' % v for v in seq]} strictly decreasing"
    cfg.error("checks", f"unknown check type {kind!r}")


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathcoupling",
        description="Construct, simulate and score couplings of SDE laws on path space.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="out", help="output directory (default: ./out)")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--threads", type=int, default=1, help="worker count for path generation")
    common.add_argument(
        "--format", choices=("csv", "bin", "json"), default=None,
        help="restrict artifacts to one format (default: write all that apply)",
    )

    p = sub.add_parser("simulate", parents=[common], help="simulate one model law and write the ensemble")
    p.add_argument("--preset", default="bm", help="model preset name (see list-presets)")
    p.add_argument("--d", type=int, default=1, help="state dimension")
    p.add_argument("--n", dest="n_steps", type=int, default=256, help="number of grid steps")
    p.add_argument("--N", dest="n_paths", type=int, default=1000, help="number of paths")
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                   help="preset parameter (JSON value; repeatable)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("couple", parents=[common], help="construct a coupled ensemble from a config")
    p.add_argument("--config", required=True, help="path to a JSON run config")
    p.set_defaults(func=cmd_couple)

    p = sub.add_parser("cost", parents=[common], help="estimate a coupling cost from a config")
    p.add_argument("--config", required=True, help="path to a JSON run config")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("verify", parents=[common], help="run statistical checks from a config")
    p.add_argument("--config", required=True, help="path to a JSON run config")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", parents=[common], help="run a named experiment config")
    p.add_argument("name", help="experiment name or path to a config JSON")
    p.add_argument("--check", action="store_true", help="evaluate the config's acceptance checks (exit 4 on failure)")
    p.add_argument("--a", type=float, default=None, help="override source volatility a")
    p.add_argument("--b", type=float, default=None, help="override target volatility b")
    p.add_argument("--N", dest="N", type=int, default=None, help="override the pair count")
    p.add_argument("--n", dest="n_steps", type=int, default=None, help="override the step count")
    p.add_argument("--c", type=float, default=None, help="override the correlation parameter")
    p.add_argument("--block", type=int, default=None, help="override the chop block size")
    p.add_argument("--w", dest="window", type=int, default=None, help="override the certificate window")
    p.add_argument("--d", type=int, default=None, help="override the dimension")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("list-presets", help="print the preset registry")
    p.set_defaults(func=cmd_list_presets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, DimensionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
