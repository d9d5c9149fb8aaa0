"""The three benchmark workloads: inputs from a seed, one operation, its checks.

A workload is built in two stages.  ``setup`` imports the library and
builds every input the operation needs (presets, cost specs, grids,
library seeds and, for the CLI workload, a config v1 file); this is what
``setup_s`` times.  ``run`` then performs the operation once and checks
its outputs; this is what ``run_s`` times.  Each workload runs in one
process with one thread (``n_workers=1``, CLI ``--threads 1``).

Every check is either an exact identity or a statistical bound whose
false-alarm rate is below 1e-6, so a fresh seed never fails by chance.
The digest of the outputs is taken after the timed region and is
information, not a gate, except that every repetition inside one process
must reproduce the first one's digest (same inputs, same outputs).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

# Sizes of each workload: the full sizes are the benchmark, the smoke
# sizes only exercise the code paths in seconds.  rotation-d2 (criterion 4
# uses N=10^4, composed N=2000) and cli-long-horizon (n=16384 in the
# original plan) are scaled so that one operation takes about 2 s like
# transport-d1: a run then holds about ten operations, where 10 s
# operations gave 2-4 and medians that moved by a third between seeds.
SIZES = {
    "transport-d1": {
        "full": {"d": 1, "N": 10_000, "n": 1024, "probe_N": 64},
        "smoke": {"d": 1, "N": 200, "n": 64, "probe_N": 8},
    },
    "rotation-d2": {
        "full": {"d": 2, "N": 2000, "n": 1024, "composed_N": 400},
        "smoke": {"d": 2, "N": 200, "n": 64, "composed_N": 100},
    },
    "cli-long-horizon": {
        "full": {"d": 2, "N": 64, "n": 2048},
        "smoke": {"d": 2, "N": 8, "n": 256},
    },
}

WORKLOADS = tuple(SIZES)

PACKAGE = "pathcoupling"

# Kernel units (``calibration.Kernel.unit``) run next to each phase of an
# operation: about half a phase's time, so that each phase is compared
# with the host's speed right before or right after it.
KERNEL_UNITS = {"transport-d1": 6, "rotation-d2": 5, "cli-long-horizon": 4}

# Wall time of one kernel unit and of one reference set-up on the host the
# benchmark was defined on (2 vCPUs, Intel Xeon, Python 3.11.7, numpy
# 2.4.6, scipy 1.17.1), so that run_s and setup_s read in its seconds.
REFERENCE_UNIT_S = 0.06
REFERENCE_SETUP_S = 1.0

# transport-d1: source bm(sigma=A), target bm(sigma=B); optimum (A - B)^2.
A, B = 2.0, 1.0
CLOSED_FORM_TOL = 0.02
MC_SIGMAS = 6.0  # two-sided normal tail at 6 sigma: 2e-9
WIENER_Z_MAX = 6.0  # max of 7 |z| at 6 sigma: 1.4e-8
ROTATION_NORM_RTOL = 1e-10
CHECK_CHUNK = 500  # paths per block in the benchmark's own array checks


class CheckFailed(Exception):
    """A benchmark check on the outputs of one operation failed."""


def _check(ok, message):
    if not ok:
        raise CheckFailed(message)


def library_seeds(workload: str, seed: int, count: int) -> list[int]:
    """Library seeds derived from the workload seed, stable across Pythons."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2**32) for _ in range(count)]


def _digest(*parts) -> str:
    """sha256 over arrays (C-ordered little-endian float64), files and JSON values."""
    import numpy as np

    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype="<f8").data)
        elif isinstance(part, Path):
            with open(part, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


@dataclass
class Outcome:
    """What one operation produced.

    ``outputs`` maps a name to the arrays or files to digest; the digest
    is taken after the timed region.  ``phases`` holds the wall time of
    each named phase and ``info`` the checked values, for the report.
    """

    outputs: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def digests(self) -> dict:
        return {name: _digest(*parts) for name, parts in self.outputs.items()}


class _Phases:
    """Wall time of each named phase of one operation, for the report."""

    def __init__(self):
        self.times = {}

    @contextlib.contextmanager
    def __call__(self, name):
        t0 = time.perf_counter()
        yield
        self.times[name] = self.times.get(name, 0.0) + time.perf_counter() - t0


# ---------------------------------------------------------------------------
# transport-d1


class _Workload:
    """One operation, written as a generator that yields between phases.

    ``steps`` lets the benchmark run the calibration kernel between
    phases; ``run`` performs the whole operation.
    """

    def prepare(self):
        """Untimed work done once per process before the repetitions."""

    def cleanup(self):
        """Untimed work done after each repetition."""

    def steps(self, span):
        raise NotImplementedError

    def run(self, span) -> Outcome:
        gen = self.steps(span)
        while True:
            try:
                next(gen)
            except StopIteration as stop:
                return stop.value


class TransportD1(_Workload):
    """Criterion-1 pipeline: closed form, Monge recursion with Q*, estimate."""

    name = "transport-d1"
    modules = ("presets", "cost", "coupling", "sde")

    def __init__(self, lib, seed, sizes, workdir):
        self.lib = lib
        self.sizes = sizes
        self.probe_seed, self.pair_seed = library_seeds(self.name, seed, 2)
        self.src = lib.presets.build("model", "bm", d=1, sigma=A)
        self.dst = lib.presets.build("model", "bm", d=1, sigma=B)
        self.spec = lib.cost.CostSpec.separable(
            lib.presets.build("h", "zero", d=1),
            lib.presets.build("g", "identity", d=1),
            label="separable(h=zero, g=identity)",
        )
        self.grid = lib.sde.TimeGrid(sizes["n"])

    def steps(self, span):
        coupling, cost, sde = self.lib.coupling, self.lib.cost, self.lib.sde
        phase = _Phases()
        s = self.sizes
        with phase("probe"):
            probe = sde.ito_map(
                self.src, sde.sample_brownian(self.grid, 1, s["probe_N"], self.probe_seed)
            )
        with phase("closed_form"):
            closed, q_star = cost.closed_form_optimal(self.src, self.dst, self.spec, probe)
        yield
        with phase("monge_sde"):
            pair = coupling.monge_sde(
                self.dst.drift, self.dst.diffusion, q_star, self.src, self.grid,
                s["N"], self.pair_seed, z0_dst=self.dst.z0, n_workers=1,
            )
        yield
        with phase("estimate"):
            est = cost.estimate(pair, self.spec, src=self.src, dst=self.dst)
        with span("bench.checks"), phase("checks"):
            oracle = (A - B) ** 2
            _check(
                abs(closed.mean - oracle) <= CLOSED_FORM_TOL,
                f"closed form {closed.mean!r} not within {CLOSED_FORM_TOL} of {oracle}",
            )
            combined = math.hypot(est.stderr, closed.stderr)
            gap = abs(est.mean - closed.mean)
            _check(
                math.isfinite(gap) and gap <= MC_SIGMAS * combined,
                f"estimate {est.mean!r} is {gap:.3g} from the closed form, "
                f"beyond {MC_SIGMAS:g} x {combined:.3g}",
            )
        return Outcome(
            outputs={
                "pair": (pair.x, pair.y),
                "values": ([closed.mean, closed.stderr, est.mean, est.stderr],),
            },
            phases=phase.times,
            info={"closed_form": closed.mean, "estimate": est.mean, "stderr": est.stderr},
        )


# ---------------------------------------------------------------------------
# rotation-d2


class RotationD2(_Workload):
    """Criterion-4 seed plus a composed Monge transport, both by state rotation."""

    name = "rotation-d2"
    modules = ("presets", "coupling", "sde", "verify")

    def __init__(self, lib, seed, sizes, workdir):
        self.lib = lib
        self.sizes = sizes
        self.driver_seed, self.composed_seed = library_seeds(self.name, seed, 2)
        self.q = lib.presets.build("rotation", "rotation-by-state", d=2)
        self.src = lib.presets.build("model", "gbm-bounded", d=2)
        self.dst = lib.presets.build("model", "ou", d=2, theta=2.0, mean=0.5)
        self.grid = lib.sde.TimeGrid(sizes["n"])
        self.expected_x = None

    def prepare(self):
        """Compute the oracle for the composed x-leg once, outside any timing."""
        sde = self.lib.sde
        bm = sde.sample_brownian(self.grid, 2, self.sizes["composed_N"], self.composed_seed)
        self.expected_x = sde.ito_map(self.src, bm).values

    def steps(self, span):
        import numpy as np

        coupling, sde, verify = self.lib.coupling, self.lib.sde, self.lib.verify
        phase = _Phases()
        s = self.sizes
        with phase("sample_brownian"):
            driver = sde.sample_brownian(self.grid, 2, s["N"], self.driver_seed, n_workers=1)
        yield
        with phase("rotation_monge"):
            pair = coupling.rotation_monge(self.q, driver)
        yield
        with phase("wiener"):
            report = verify.wiener_marginal_test(pair.y_ensemble())
        yield
        with phase("composed_monge"):
            composed = coupling.composed_monge(
                self.src, self.dst, self.q, self.grid, s["composed_N"],
                self.composed_seed, n_workers=1,
            )
        yield
        with span("bench.checks"), phase("checks"):
            worst = 0.0
            for lo in range(0, s["N"], CHECK_CHUNK):  # chunked: keep peak RSS the library's
                nx = np.linalg.norm(np.diff(pair.x[lo:lo + CHECK_CHUNK], axis=1), axis=2)
                ny = np.linalg.norm(np.diff(pair.y[lo:lo + CHECK_CHUNK], axis=1), axis=2)
                worst = max(worst, float(np.max(np.abs(ny - nx) / nx)))
            _check(
                worst <= ROTATION_NORM_RTOL,
                f"|dY| differs from |dX| by {worst:.3g} relative (> {ROTATION_NORM_RTOL:g})",
            )
            _check(
                report.statistic <= WIENER_Z_MAX,
                f"wiener z-statistic {report.statistic:.3g} > {WIENER_Z_MAX:g}",
            )
            _check(
                composed.x.shape == self.expected_x.shape
                and composed.x.tobytes() == self.expected_x.tobytes(),
                "composed_monge x-leg differs from ito_map(src, sample_brownian(seed))",
            )
        return Outcome(
            outputs={
                "rotation": (pair.x, pair.y),
                "wiener": (report.statistic, report.details["z"]),
                "composed": (composed.x, composed.y),
            },
            phases=phase.times,
            info={"wiener_z": report.statistic, "norm_rel_dev": worst},
        )


# ---------------------------------------------------------------------------
# cli-long-horizon


class CliLongHorizon(_Workload):
    """Config v1 file -> ``couple`` and ``verify`` in-process -> read-backs."""

    name = "cli-long-horizon"
    modules = ("cli", "pathio", "presets")
    TESTS = ("realized_covariation", "wiener_marginal_test")

    def __init__(self, lib, seed, sizes, workdir):
        self.lib = lib
        self.sizes = sizes
        (lib_seed,) = library_seeds(self.name, seed, 1)
        theta = math.pi / 6
        rho = [
            [0.8 * math.cos(theta), -0.8 * math.sin(theta)],
            [0.8 * math.sin(theta), 0.8 * math.cos(theta)],
        ]
        src = {"preset": "ou", "params": {"theta": 1.0, "z0": 1.0}}
        dst = {"preset": "ou", "params": {"theta": 2.0, "mean": 0.5}}
        corr = {"preset": "scaled-rotation", "params": {"scale": 0.8, "theta": theta}}
        config = {
            "version": 1,
            "d": sizes["d"],
            "n_steps": sizes["n"],
            "N": sizes["N"],
            "seed": lib_seed,
            "src": src,
            "dst": dst,
            "coupling": {"constructor": "couple_sdes", "correlation": corr},
            "verify": [{"test": "covariation", "target": rho}, {"test": "wiener", "side": "y"}],
        }
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.workdir / "run.json"
        self.config_path.write_text(json.dumps(config, indent=2) + "\n")
        lib.cli.load_config(self.config_path)
        for kind, section in (("model", src), ("model", dst), ("correlation", corr)):
            lib.presets.build(kind, section["preset"], d=sizes["d"], **section["params"])
        self.out = self.workdir / "out"

    def _cli(self, *argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.lib.cli.main(list(argv))
        _check(code == 0, f"pathcoupling {argv[0]} exited {code}: {buf.getvalue()[-300:]}")

    def steps(self, span):
        pathio = self.lib.pathio
        phase = _Phases()
        common = ("--config", str(self.config_path), "--out", str(self.out), "--threads", "1")
        with phase("couple"):
            self._cli("couple", *common)
        yield
        with phase("verify"):
            self._cli("verify", *common)
        yield
        with phase("read_binary"):
            from_bin = pathio.read_binary(self.out / "coupled.bin")
        with phase("read_csv"):
            from_csv = pathio.read_csv(self.out / "coupled.csv")
        yield
        with span("bench.checks"), phase("checks"):
            reports = pathio.read_reports_jsonl(self.out / "reports.jsonl")
            names = tuple(rep.name for rep in reports)
            _check(names == self.TESTS, f"reports.jsonl holds {names}, expected {self.TESTS}")
            stats = [rep.statistic for rep in reports]
            _check(all(math.isfinite(v) for v in stats), f"non-finite statistics {stats}")
            s = self.sizes
            _check(
                from_bin.x.shape == (s["N"], s["n"] + 1, s["d"]),
                f"binary read-back has shape {from_bin.x.shape}",
            )
            _check(
                from_bin.x.tobytes() == from_csv.x.tobytes()
                and from_bin.y.tobytes() == from_csv.y.tobytes(),
                "CSV and binary read-backs differ",
            )
        files = ("coupled.csv", "coupled.bin", "manifest.json", "reports.jsonl")
        return Outcome(
            outputs={name: (self.out / name,) for name in files},
            phases=phase.times,
            info={
                "statistics": dict(zip(names, stats)),
                "file_bytes": {name: (self.out / name).stat().st_size for name in files},
            },
        )

    def cleanup(self):
        shutil.rmtree(self.out, ignore_errors=True)


CLASSES = {cls.name: cls for cls in (TransportD1, RotationD2, CliLongHorizon)}


def setup(workload: str, seed: int, smoke: bool, workdir):
    """Import the library and build one workload's inputs; this is ``setup_s``.

    Only the package and the modules the workload calls are imported, so
    numpy, scipy and ``scipy.stats`` count as long as the library loads them.
    """
    cls = CLASSES[workload]
    lib = SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}") for m in cls.modules})
    lib.package = importlib.import_module(PACKAGE)
    sizes = SIZES[workload]["smoke" if smoke else "full"]
    return cls(lib, seed, sizes, workdir)
