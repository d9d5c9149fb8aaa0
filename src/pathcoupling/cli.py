"""Command line front end: simulate, couple, score and verify path ensembles.

The CLI is a thin orchestration layer over the library.  Runs are driven
by a versioned JSON config (see ``load_config``).  The ``coupling``
section, each ``verify`` entry and an experiment config name a function,
and ``_bind`` checks their other fields against its signature.  A named
experiment is a function in ``pathcoupling.experiments`` with its shipped
sizes in a config file under ``pathcoupling/experiments/``; its report
carries its own verdicts.  All parallelism lives inside the library
calls; the CLI itself never spawns workers.

Exit codes: 0 success, 2 config error (with a line-numbered diagnostic
where possible), 3 numerical/domain error, 4 a failed verdict under
``experiment --check``.
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

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CHECK = 4

CONFIG_VERSION = 1


# ---------------------------------------------------------------------------
# config plumbing


def _line_of(raw: str, key: str, text: str = ""):
    """Best-effort 1-based line of a JSON key: the first line that holds both the key
    and ``text`` (a rejected value as JSON), else the first that holds the key."""
    lines = [(i, line) for i, line in enumerate(raw.splitlines(), start=1) if f'"{key}"' in line]
    return next((i for i, line in lines if text in line), lines[0][0] if lines else None)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class Config:
    """A parsed config plus enough context for line-numbered diagnostics."""

    data: dict
    raw: str
    source: str

    def error(self, key, message, value_text=""):
        raise ConfigError(f"{self.source}: {message}", line=_line_of(self.raw, key, value_text))

    def number(self, key, value, kind=float):
        """``value`` of field ``key`` as ``kind`` (int or float); anything but a number,
        a boolean, or a non-integral value for an int is a config error naming the key."""
        if not _is_number(value):
            self.error(key, f"field {key!r} must be a number, got {value!r}", json.dumps(value))
        if kind is int and not float(value).is_integer():
            self.error(key, f"field {key!r} must be an integer, got {value!r}", json.dumps(value))
        return kind(value)


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


# the config fields that flags replace: all under 'experiment', only the seed elsewhere
_OVERRIDES = ("a", "b", "N", "n_steps", "seed", "c", "block", "window", "d")


def _load(path, args) -> Config:
    """The config at ``path``, each field a flag of ``args`` sets replaced by its value."""
    cfg = load_config(path)
    for key in _OVERRIDES:
        if getattr(args, key, None) is not None:
            cfg.data[key] = getattr(args, key)
    return cfg


def _bind(cfg: Config, table: dict, section, where: str, key: str):
    """The function ``table`` names by ``section[key]``, and the section's other fields,
    checked against its parameters (but those before a ``/``, and ``n_workers``) and
    cast to the type of each int or float default.  ``where`` names the section."""
    if not isinstance(section, dict):
        cfg.error(where, f"config needs a '{where}' object with a '{key}' name")
    what, name = f"{where} {key}", section.get(key)
    if not isinstance(name, str) or name not in table:
        cfg.error(key, f"unknown {what} {name!r}; known: {', '.join(table)}", json.dumps(name))
    fn = table[name]
    params = {k: p for k, p in inspect.signature(fn).parameters.items() if p.kind != p.POSITIONAL_ONLY}
    params.pop("n_workers", None)
    fields = {k: v for k, v in section.items() if k != key}
    for k, value in fields.items():
        if k not in params:
            cfg.error(k, f"{what} {name!r} takes no field {k!r}; it takes: {', '.join(params) or 'none'}")
        if type(params[k].default) in (int, float):
            fields[k] = cfg.number(k, value, type(params[k].default))
    return fn, fields


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


@dataclass(frozen=True)
class _Run:
    """The sizes of a run config, and the presets and constructor calls built on them."""

    cfg: Config
    d: int
    grid: sde.TimeGrid
    n_pairs: int
    seed: int
    n_workers: int

    def model(self, key):
        return self.preset("model", self.cfg.data.get(key), key)

    def preset(self, kind, section, key=None):
        """The ``kind`` preset a config section (at ``key``, default ``kind``) names."""
        key = key or kind
        if not isinstance(section, dict) or "preset" not in section:
            self.cfg.error(key, f"'{key}' must be an object with a 'preset' name")
        params = section.get("params", {})
        if not isinstance(params, dict):
            self.cfg.error("params", f"the params of '{key}' must be a JSON object, got {params!r}", json.dumps(params))
        if section["preset"] == "chop":  # a chop schedule is laid out on the run's grid
            params = {"n_steps": self.grid.n_steps, **params}
        try:
            return presets.build(kind, section["preset"], d=self.d, **params)
        except ConfigError as err:
            self.cfg.error(section["preset"], str(err))

    def call(self, constructor, *head, **kw):
        """``constructor(*head, grid, n_pairs, seed, **kw)`` on the run's workers."""
        return constructor(*head, self.grid, self.n_pairs, self.seed, **kw, n_workers=self.n_workers)


def _run(cfg: Config, n_workers: int = 1) -> _Run:
    d, n_steps, n_pairs, seed = _sizes(cfg)
    return _Run(cfg, d, sde.TimeGrid(n_steps), n_pairs, seed, n_workers)


def _couple_brownians(run, /, correlation=None):
    return run.call(coupling.couple_brownians, run.preset("correlation", correlation))


def _couple_sdes(run, /, correlation=None):
    return run.call(coupling.couple_sdes, run.model("src"), run.model("dst"), run.preset("correlation", correlation))


def _rotation_monge(run, /, rotation=None):
    q = run.preset("rotation", rotation)
    driver = sde.sample_brownian(run.grid, run.d, run.n_pairs, run.seed, n_workers=run.n_workers)
    return coupling.rotation_monge(q, driver)


def _composed_monge(run, /, rotation=None):
    return run.call(coupling.composed_monge, run.model("src"), run.model("dst"), run.preset("rotation", rotation))


def _monge_sde(run, /, rotation=None):
    src, dst = run.model("src"), run.model("dst")
    return run.call(coupling.monge_sde, dst.drift, dst.diffusion, run.preset("rotation", rotation), src, z0_dst=dst.z0)


def _tanaka(run, /):
    if run.d != 1:
        run.cfg.error("d", "the tanaka coupling is one dimensional")
    return run.call(coupling.tanaka_coupling)


def _rotation_chop(run, /, c=0.0, block=16):
    return run.call(coupling.rotation_chop, c, block=block)


#: constructor name -> function; its parameters after the ``/`` are the section's fields
_COUPLINGS = {f.__name__[1:]: f for f in (
    _couple_brownians, _couple_sdes, _rotation_monge, _composed_monge, _monge_sde, _tanaka, _rotation_chop
)}


def build_coupled(cfg: Config, n_workers: int = 1) -> coupling.CoupledEnsemble:
    """Construct the coupled ensemble a config describes."""
    run = _run(cfg, n_workers)
    ctor, fields = _bind(cfg, _COUPLINGS, cfg.data.get("coupling"), "coupling", "constructor")
    return ctor(run, **fields)


def _lp(run, /, p=2.0):
    return cost.CostSpec.lp(p), None, None


def _separable(run, /, h=None, g=None):
    h = {"preset": "zero"} if h is None else h
    g = {"preset": "identity"} if g is None else g
    h_fn, g_fn = run.preset("h", h), run.preset("g", g)
    spec = cost.CostSpec.separable(h_fn, g_fn, label=f"separable(h={h['preset']}, g={g['preset']})")
    return spec, run.model("src"), run.model("dst")


#: cost kind -> function returning (spec, src, dst); its parameters after the ``/`` are the section's fields
_COSTS = {"lp": _lp, "separable": _separable}


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
    cfg = _load(args.config, args)
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
        pathio.write_json(out / "manifest.json", dict(pair.provenance))
        written.append("manifest.json")
    prov = pair.provenance
    print(f"coupled {pair.n_pairs} pairs via {prov.get('constructor')}; wrote {', '.join(written)} to {out}")
    return EXIT_OK


def cmd_cost(args) -> int:
    cfg = _load(args.config, args)
    _, n_steps, _, seed = _sizes(cfg)
    pair = build_coupled(cfg, n_workers=args.threads)
    make_spec, fields = _bind(cfg, _COSTS, cfg.data.get("cost"), "cost", "kind")
    spec, src, dst = make_spec(_run(cfg), **fields)
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
    pathio.write_json(out / "cost.json", payload)
    line = f"cost[{est.spec_label}] mean={est.mean:.6g} stderr={est.stderr:.3g} (N={est.n_pairs})"
    if closed is not None:
        line += f" closed-form={closed.mean:.6g} gap={est.mean - closed.mean:+.3g}"
    print(line)
    print(f"wrote {out / 'cost.json'}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load(args.config, args)
    entries = cfg.data.get("verify")
    if not isinstance(entries, list) or not entries:
        cfg.error("verify", "config needs a non-empty 'verify' list of test objects")
    tests = [_bind(cfg, _TESTS, entry, "verify", "test") for entry in entries]
    pair = build_coupled(cfg, n_workers=args.threads)
    reports = [test(cfg, pair, **fields) for test, fields in tests]
    out = _out_dir(args)
    pathio.write_reports_jsonl(out / "reports.jsonl", reports)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.name} statistic={rep.statistic:.6g} threshold={rep.threshold:.6g}")
    print(f"wrote {out / 'reports.jsonl'}")
    return EXIT_OK


def _wiener(cfg, pair, /, side="y", alpha=0.01):
    if side not in ("x", "y"):
        cfg.error("side", f"wiener test side must be 'x' or 'y', got {side!r}", json.dumps(side))
    return verify.wiener_marginal_test(pair.x_ensemble() if side == "x" else pair.y_ensemble(), alpha)


def _covariation(cfg, pair, /, target=None, window=verify.DEFAULT_WINDOW):
    entries = np.asarray(target, dtype=object)
    if entries.shape not in ((), (pair.d, pair.d)) or not all(map(_is_number, entries.flat)):
        message = f"'target' must be a number or a {pair.d} x {pair.d} list of numbers, got {target!r}"
        cfg.error("target", message, json.dumps(target))
    return verify.covariation_test(pair, target, window)


def _certificate(cfg, pair, /, window=verify.DEFAULT_WINDOW, tol=None):
    return verify.monge_certificate(pair, window, tol if tol is None else cfg.number("tol", tol))


def _adaptedness(cfg, pair, /, k_neighbors=5, threshold=0.75):
    return verify.adaptedness_probe(pair, k_neighbors, threshold)


#: verify test name -> function; its parameters after the ``/`` are the entry's fields
_TESTS = {f.__name__[1:]: f for f in (_wiener, _covariation, _certificate, _adaptedness)}


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


def _shown(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(map(_shown, value)) + "]"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def cmd_experiment(args) -> int:
    name, path = _resolve_experiment(args.name)
    cfg = _load(path, args)
    section = {k: v for k, v in cfg.data.items() if k != "version"}
    fn, fields = _bind(cfg, experiments.EXPERIMENTS, section, "experiment", "kind")
    result = {"kind": section["kind"], **fn(**fields, n_workers=args.threads)}
    out = _out_dir(args)
    report_path = out / f"{name}-report.json"
    pathio.write_json(report_path, result)
    print(f"wrote {report_path}")
    if not args.check:
        return EXIT_OK
    verdicts = result["verdicts"]
    for v in verdicts:
        print(f"CHECK {'ok  ' if v['ok'] else 'FAIL'} {v['name']}={_shown(v['value'])} bound {_shown(v['bound'])}")
    failures = sum(not v["ok"] for v in verdicts)
    print(f"{failures} of {len(verdicts)} checks failed" if failures else f"all {len(verdicts)} checks passed")
    return EXIT_CHECK if failures else EXIT_OK


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
    p.add_argument("--check", action="store_true", help="print the experiment's verdicts (exit 4 if one fails)")
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
