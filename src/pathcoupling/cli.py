"""Command line front end: simulate, couple, score and verify path ensembles.

The CLI is a thin orchestration layer over the library.  Runs are driven
by a versioned JSON config (see ``load_config``).  ``_bind`` checks the
fields of the run config's top level, its sections, each ``verify`` entry
and an experiment config against the signature of a function.  A named
experiment is a function in ``pathcoupling.experiments`` whose keyword
defaults are its shipped sizes: ``experiment <name>`` binds just its
``kind`` (plus flags), a JSON config file any of its fields; its report
holds every input but ``n_workers``, then what the function measured and
its verdicts.  ``simulate`` turns its flags into a run config's sizes
and a ``model`` preset, through the same sizes and preset checks.  All parallelism lives inside the library calls; the CLI itself
never spawns workers.

Exit codes: 0 success, 2 config error (with a line-numbered diagnostic
where possible), 3 numerical/domain error, 4 a failed verdict under
``experiment --check``.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

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


def _line_of(raw: str, key: str, text: str = "", within: str = ""):
    """Best-effort 1-based line of a JSON key: the first line that holds both the key
    and ``text`` (a rejected value as JSON), else the first that holds the key; with
    ``within``, the search starts at the first line that holds that key."""
    numbered = list(enumerate(raw.splitlines(), start=1))
    start = next((i for i, line in numbered if f'"{within}"' in line), 1) if within else 1
    lines = [(i, line) for i, line in numbered[start - 1 :] if f'"{key}"' in line]
    return next((i for i, line in lines if text in line), lines[0][0] if lines else None)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class Config:
    """A parsed config plus enough context for line-numbered diagnostics."""

    data: dict
    raw: str
    source: str

    def error(self, key, message, value_text="", within=""):
        raise ConfigError(f"{self.source}: {message}", line=_line_of(self.raw, key, value_text, within))

    def number(self, key, value, kind=float):
        """``value`` of field ``key`` as ``kind`` (int or float); anything but a number,
        a boolean, or a non-integral value for an int is a config error naming the key."""
        if not _is_number(value):
            self.error(key, f"field {key!r} must be a number, got {value!r}", json.dumps(value))
        if kind is int and value % 1:  # exact for an int of any size, where float(value) may overflow
            self.error(key, f"field {key!r} must be an integer, got {value!r}", json.dumps(value))
        return kind(value)


def _finite(text: str):
    """A JSON number (an int if written as one), NaN, Infinity or -Infinity; one that is not finite
    as a float, such as an integer of 309 digits, is a config error."""
    if not np.isfinite(value := float(text)):
        raise ConfigError(f"{text} is not a finite number")
    return int(text) if text.lstrip("-").isdigit() else value


def load_config(path) -> Config:
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err.strerror}") from None
    try:
        data = json.loads(raw, parse_constant=_finite, parse_float=_finite, parse_int=_finite)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: {err.msg}", line=err.lineno) from None
    except ConfigError as err:  # located at the first line that holds the number outside a string
        text = str(err).partition(" ")[0]
        lines = (i for i, line in enumerate(raw.splitlines(), 1) if text in re.sub(r'"(\\.|[^"\\])*"', "", line))
        raise ConfigError(f"{path}: {err}", line=next(lines, None)) from None
    cfg = Config(data=data, raw=raw, source=str(path))
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    version = data.get("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        cfg.error("version", f"unsupported config version {version!r} (expected {CONFIG_VERSION})")
    return cfg


# the config fields that flags replace: all under 'experiment', the sizes d, n_steps, N
# and seed under 'simulate', only the seed in a run config
_OVERRIDES = ("a", "b", "N", "n_steps", "seed", "c", "d")


def _with_flags(cfg: Config, args) -> Config:
    """``cfg``, each field a flag of ``args`` sets replaced by its value."""
    cfg.data.update((key, getattr(args, key)) for key in _OVERRIDES if getattr(args, key, None) is not None)
    return cfg


def _bind(cfg: Config, table, section, where: str, key: str | None = None):
    """The function ``table`` names by ``section[key]`` (``table`` itself with no ``key``), and each of its
    parameters (but those before a ``/``, and ``n_workers``) at its default or the section's field, checked and
    cast to the type of an int or float default; a tuple or mapping default asks for a JSON list or object, a list
    of numbers where the default holds numbers; :func:`_size` checks a size, :func:`_param` an object's."""
    if not isinstance(section, dict):
        cfg.error(where, f"config needs a '{where}' object" + (f" with a '{key}' name" if key else ""))
    what, name, fn = "section", where, table
    if key is not None:
        what, name = f"{where} {key}", section.get(key)
        if not isinstance(name, str) or name not in table:
            cfg.error(key, f"unknown {what} {name!r}; known: {', '.join(table)}", json.dumps(name))
        fn = table[name]
    defaults = {k: p.default for k, p in inspect.signature(fn).parameters.items() if p.kind != p.POSITIONAL_ONLY}
    defaults.pop("n_workers", None)
    fields = {k: v for k, v in section.items() if k != key}
    for k, value in fields.items():
        if k not in defaults:
            cfg.error(k, f"{what} {name!r} takes no field {k!r}; it takes: {', '.join(defaults) or 'none'}")
        json_type = {tuple: list, MappingProxyType: dict}.get(type(defaults[k]), object)
        if k in _LEAST:
            fields[k] = _size(cfg, k, value, f"{what} {name!r} ")
        elif type(defaults[k]) in (int, float):
            fields[k] = cfg.number(k, value, type(defaults[k]))
        elif not isinstance(value, json_type):
            cfg.error(k, f"field {k!r} must be a JSON {'list' if json_type is list else 'object'}, got {value!r}", json.dumps(value))
        elif json_type is list:
            fields[k] = _numbers(cfg, k, value, defaults[k])
        elif json_type is dict:
            for e, v in value.items():
                _param(cfg, e, v, defaults[k].get(e))
    return fn, {**defaults, **fields}


def _param(cfg: Config, key, value, default):
    """Refuse a preset's param ``value`` that is no number of its kind: a bool, a fraction for a size or a
    number in a string, where ``key`` is a size field or ``default`` a float.  A string that is no number
    is the builder's to refuse, at the preset."""
    if isinstance(value, str):
        try:
            float(value)
        except ValueError:
            return
    if isinstance(value, (int, float, str)) and key in _LEAST:
        _size(cfg, key, value)
    elif isinstance(value, (int, float, str)) and type(default) is float:
        cfg.number(key, value)


def _numbers(cfg: Config, key, value, default):
    """A list field's ``value``, every entry at any depth cast by ``cfg.number`` to the type of the
    first number in the tuple ``default``; unchanged if the default holds none (its entries are not numbers)."""
    first = default
    while isinstance(first, tuple) and first:
        first = first[0]
    if type(first) not in (int, float):
        return value
    return [_numbers(cfg, key, v, default) if isinstance(v, list) else cfg.number(key, v, type(first)) for v in value]


#: the least value of each size field, in a run config, an experiment, a preset's params or any other section
_LEAST = {"N": 1, "n_steps": 1, "d": 1, "probe_N": 1, "n_seeds": 1, "seed": 0, "rank": 0}


def _size(cfg: Config, key, value, owner="") -> int:
    """``value`` of size field ``key`` (of ``owner``); one that is not an integer, or is below its least,
    is a config error."""
    number = cfg.number(key, value, int)
    if number < _LEAST[key]:
        cfg.error(key, f"{owner}field {key!r} must be at least {_LEAST[key]}, got {value!r}")
    return number


def _top_level(version=CONFIG_VERSION, d=1, n_steps=256, N=1000, seed=0, src=None, dst=None,
               coupling=None, cost=None, closed_form=None, verify=None):
    """A run config's fields: its sizes with their defaults, and its sections."""


def _sizes(cfg: Config):
    """(d, n_steps, N, seed) of a run config, its top level bound to :func:`_top_level`."""
    fields = _bind(cfg, _top_level, cfg.data, "run config")[1]
    return tuple(fields[k] for k in ("d", "n_steps", "N", "seed"))


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
        if not isinstance(section, dict) or not isinstance(section.get("preset"), str):
            self.cfg.error(key, f"'{key}' must be an object with a 'preset' name")
        params = section.get("params", {})
        if not isinstance(params, dict) or {"d", "n_steps"} & set(params):  # the run's 'd' and grid
            message = f"the params of '{key}' must be a JSON object without 'd' or 'n_steps', got {params!r}"
            self.cfg.error("params", message, json.dumps(params), within=key)
        name, known = section["preset"], {p.name: p for p in presets.available(kind)}
        defaults = known[name].defaults if name in known else {}  # an unknown preset is named by the builder
        for k, value in params.items():
            if name in known and k not in defaults:
                message = f"{kind} preset {name!r} takes no param {k!r}; it takes: {', '.join(defaults) or 'none'}"
                self.cfg.error(k, message, within=key)
            _param(self.cfg, k, value, defaults.get(k))
        try:
            return presets.build(kind, name, d=self.d, **params)
        except ConfigError as err:
            self.cfg.error("preset", str(err), json.dumps(name), within=key)

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


#: constructor name -> function; its parameters after the ``/`` are the section's fields
_COUPLINGS = {f.__name__[1:]: f for f in (
    _couple_brownians, _couple_sdes, _rotation_monge, _composed_monge, _monge_sde, _tanaka
)}

#: the constructors that couple the laws of the run's ``src`` and ``dst`` models rather than Brownian motions
_SDE_COUPLINGS = ("couple_sdes", "composed_monge", "monge_sde")


def build_coupled(cfg: Config, n_workers: int = 1) -> coupling.CoupledEnsemble:
    """Construct the coupled ensemble a config describes."""
    run = _run(cfg, n_workers)
    ctor, fields = _bind(cfg, _COUPLINGS, cfg.data.get("coupling"), "coupling", "constructor")
    return ctor(run, **fields)


def _run_sha256(cfg: Config) -> str:
    """sha256 of the canonical JSON of what fixes a config's coupled ensemble: its checked
    sizes and its ``src``, ``dst`` and ``coupling`` sections (the thread count changes no byte)."""
    run = dict(zip(("d", "n_steps", "N", "seed"), _sizes(cfg)))
    run.update((key, cfg.data.get(key)) for key in ("src", "dst", "coupling"))
    return hashlib.sha256(json.dumps(run, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _coupled_for(cfg: Config, args) -> coupling.CoupledEnsemble:
    """The coupled ensemble ``cfg`` describes: read from ``--out/coupled.bin`` if the ``manifest.json``
    beside it has this run's ``run_sha256`` and the file's ``bin_sha256``, else built afresh."""
    run_sha256, out = _run_sha256(cfg), Path(args.out)
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        digest = manifest.get("bin_sha256") if isinstance(manifest, dict) else None
        if isinstance(digest, str) and manifest.get("run_sha256") == run_sha256:
            return pathio.read_binary(out / "coupled.bin", sha256=digest)
    except (OSError, ValueError, ConfigError):  # a missing or unreadable file, or a binary altered since
        pass
    return build_coupled(cfg, n_workers=args.threads)


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


def _closed_form(run, src, dst, spec, /, probe_N=64):
    probe = experiments.probe(src, run.grid.n_steps, probe_N, run.seed + 1)
    return cost.closed_form_optimal(src, dst, spec, probe)[0]


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(args, stem, paths, manifest) -> str:
    """Write ``paths`` to ``<stem>.csv`` and ``<stem>.bin`` and ``manifest`` to ``manifest.json``
    under ``--out``, each unless ``--format`` names another; a manifest written with the binary
    records its ``bin_sha256``.  What was written where."""
    out = _out_dir(args)
    written = []
    if args.format in (None, "csv"):
        pathio.write_csv(out / f"{stem}.csv", paths)
        written.append(f"{stem}.csv")
    if args.format in (None, "bin"):
        manifest = {**manifest, "bin_sha256": pathio.write_binary(out / f"{stem}.bin", paths)}
        written.append(f"{stem}.bin")
    if args.format in (None, "json"):
        pathio.write_json(out / "manifest.json", manifest)
        written.append("manifest.json")
    return f"wrote {', '.join(written)} to {out}"


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    model = {"preset": args.preset, "params": _parse_params(args.param)}
    run = _run(_with_flags(Config({}, raw="", source="simulate"), args), args.threads)
    law = run.preset("model", model)
    ens = sde.ito_map(law, sde.sample_brownian(run.grid, run.d, run.n_pairs, run.seed, n_workers=run.n_workers))
    manifest = {"model": law.label, "d": run.d, "n_steps": run.grid.n_steps, "N": run.n_pairs, "seed": run.seed}
    wrote = _write(args, "ensemble", ens, manifest)
    print(f"simulated {run.n_pairs} x {args.preset}(d={run.d}, n={run.grid.n_steps}); {wrote}")
    return EXIT_OK


def _parse_params(items):
    params = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--param expects KEY=VALUE, got {item!r}")
        try:
            params[key] = json.loads(value, parse_constant=_finite, parse_float=_finite, parse_int=_finite)
        except json.JSONDecodeError:
            params[key] = value
        except ConfigError as err:
            raise ConfigError(f"--param {item!r}: {err}") from None
    return params


def cmd_couple(args) -> int:
    cfg = _with_flags(load_config(args.config), args)
    pair = build_coupled(cfg, n_workers=args.threads)
    wrote = _write(args, "coupled", pair, {**pair.provenance, "run_sha256": _run_sha256(cfg)})
    print(f"coupled {pair.n_pairs} pairs via {pair.provenance.get('constructor')}; {wrote}")
    return EXIT_OK


def cmd_cost(args) -> int:
    cfg = _with_flags(load_config(args.config), args)
    run = _run(cfg)
    make_spec, fields = _bind(cfg, _COSTS, cfg.data.get("cost"), "cost", "kind")
    spec, src, dst = make_spec(run, **fields)
    closed_fields = cfg.data.get("closed_form")
    if closed_fields is not None:  # bound, as every other section, before the ensemble is built or read
        closed_fields = _bind(cfg, _closed_form, closed_fields, "closed_form")[1]
        if spec.kind != cost.SEPARABLE:
            cfg.error("closed_form", "the closed form applies to separable costs only")
    est = cost.estimate(_coupled_for(cfg, args), spec, src=src, dst=dst)
    closed = None if closed_fields is None else _closed_form(run, src, dst, spec, **closed_fields)
    payload = pathio.cost_report(est, n_steps=run.grid.n_steps, seed=run.seed, closed_form=closed)
    out = _out_dir(args)
    pathio.write_json(out / "cost.json", payload)
    line = f"cost[{est.spec_label}] mean={est.mean:.6g} stderr={est.stderr:.3g} (N={est.n_pairs})"
    if closed is not None:
        line += f" closed-form={closed.mean:.6g} gap={est.mean - closed.mean:+.3g}"
    print(line)
    print(f"wrote {out / 'cost.json'}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _with_flags(load_config(args.config), args)
    entries = cfg.data.get("verify")
    if not isinstance(entries, list) or not entries:
        cfg.error("verify", "config needs a non-empty 'verify' list of test objects")
    bound = [_bind(cfg, _TESTS, entry, "verify", "test") for entry in entries]
    run = _run(cfg, args.threads)
    tests = [test(run, **fields) for test, fields in bound]
    pair = _coupled_for(cfg, args)
    reports = [test(pair) for test in tests]
    out = _out_dir(args)
    pathio.write_reports_jsonl(out / "reports.jsonl", reports)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {rep.name} statistic={rep.statistic:.6g} threshold={rep.threshold:.6g}")
    print(f"wrote {out / 'reports.jsonl'}")
    return EXIT_OK


def _wiener(run, /, side="y", alpha=0.01):
    if side not in ("x", "y"):
        run.cfg.error("side", f"wiener test side must be 'x' or 'y', got {side!r}", json.dumps(side))
    return lambda pair: verify.wiener_marginal_test(pair.x_ensemble() if side == "x" else pair.y_ensemble(), alpha)


def _covariation(run, /, target=None):
    entries = np.asarray(target, dtype=object)
    if entries.shape not in ((), (run.d, run.d)) or not all(map(_is_number, entries.flat)):
        message = f"'target' must be a number or a {run.d} x {run.d} list of numbers, got {target!r}"
        run.cfg.error("target", message, json.dumps(target))
    return lambda pair: verify.covariation_test(pair, target)


def _certificate(run, /):
    def test(pair):  # an SDE coupling's legs are read under its models, any other's are the drivers
        sdes = run.cfg.data["coupling"]["constructor"] in _SDE_COUPLINGS  # a section the build checked
        return verify.monge_certificate(pair, *(run.model(key) for key in ("src", "dst") if sdes))

    return test


def _adaptedness(run, /, k_neighbors=5, threshold=0.75):
    if k_neighbors < 1 or k_neighbors % 2 == 0:
        run.cfg.error("k_neighbors", f"field 'k_neighbors' must be a positive odd count, got {k_neighbors}", str(k_neighbors))
    if run.n_pairs < 1000:
        run.cfg.error("N", f"the adaptedness test needs a run 'N' of at least 1000, got {run.n_pairs}")
    return lambda pair: verify.adaptedness_probe(pair, k_neighbors, threshold)


#: verify test name -> function of the run and the entry's fields (after the ``/``): it checks them, then returns a test
_TESTS = {f.__name__[1:]: f for f in (_wiener, _covariation, _certificate, _adaptedness)}


def cmd_list_presets(_args) -> int:
    for p in presets.available():
        print(f"{p.kind:12s} {p.name:18s} {p.description}")
        for name, default in p.defaults.items():
            print(f"{'':12s} {'':18s}   {name} = {default!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# named experiments


def _shown(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(map(_shown, value)) + "]"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def cmd_experiment(args) -> int:
    name = args.name
    if name.endswith(".json"):  # a config file; its stem names the report
        name, cfg = Path(name).stem, load_config(name)
    elif name in experiments.EXPERIMENTS:  # the function's defaults
        cfg = Config({"kind": name}, raw="", source=name)
    else:
        raise ConfigError(f"unknown experiment {name!r}; available: {', '.join(sorted(experiments.EXPERIMENTS))}")
    cfg = _with_flags(cfg, args)
    section = {k: v for k, v in cfg.data.items() if k != "version"}
    fn, fields = _bind(cfg, experiments.EXPERIMENTS, section, "experiment", "kind")
    inputs = {k: dict(v) if isinstance(v, MappingProxyType) else v for k, v in fields.items()}  # a JSON object
    result = {"kind": section["kind"], **inputs, **fn(**fields, n_workers=args.threads)}
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

    sizes = argparse.ArgumentParser(add_help=False)
    sizes.add_argument("--d", type=int, help="override the dimension")
    sizes.add_argument("--n", dest="n_steps", type=int, help="override the step count")
    sizes.add_argument("--N", type=int, help="override the path (pair) count")

    p = sub.add_parser("simulate", parents=[common, sizes], help="simulate one model law and write the ensemble")
    p.add_argument("--preset", default="bm", help="model preset name (see list-presets)")
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

    p = sub.add_parser("experiment", parents=[common, sizes], help="run a named experiment or a config file")
    p.add_argument("name", help="experiment name or path to a config JSON")
    p.add_argument("--check", action="store_true", help="print the experiment's verdicts (exit 4 if one fails)")
    p.add_argument("--a", type=float, default=None, help="override source volatility a")
    p.add_argument("--b", type=float, default=None, help="override target volatility b")
    p.add_argument("--c", type=float, default=None, help="override the correlation parameter")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("list-presets", help="print the preset registry")
    p.set_defaults(func=cmd_list_presets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, DimensionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
