"""Benchmark of the pathcoupling library: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload transport-d1 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload cli-long-horizon --seed 1 --seconds 25 --trace 1
    python3 bench/run.py --workload rotation-d2 --seed 1 --seconds 2 --trace 0 --smoke

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run; both print a human-readable summary,
then one JSON report line (provenance, every repetition, digests,
checks, spans), then the result object as the last line.  The metric
names and units are the ones ``BENCHMARK.json`` lists.

The script uses only the standard library.  It builds nothing: the
library is imported from the checkout's ``src`` by fresh single-threaded
interpreters (``worker.py``): some that only time set-up, next to as many
that time the reference set-up, and one that runs the workload.  Timings
are calibrated against the fixed reference work of ``calibration.py``
(see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
PROBE_TIMEOUT_S = 120
SETUP_PAIRS = 4  # live/reference set-up pairs; the workload process is the last live one


class BenchError(Exception):
    """The benchmark could not run (as opposed to an operation failing)."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# provenance


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _cache_bytes(level: int, kind: str):
    """Size of CPU 0's cache of one level and type ("Data", "Unified"), from sysfs."""
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (int((index / "level").read_text()) != level
                    or (index / "type").read_text().strip() != kind):
                continue
            size = (index / "size").read_text().strip()
            return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
        except (OSError, ValueError):
            continue
    return None


def _git_commit(root: Path):
    """The commit of a plain git checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    pkg = root / "src" / "pathcoupling"
    for path in sorted(p for p in pkg.rglob("*") if p.suffix in (".py", ".json")):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, sizes) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "l1d_bytes": _cache_bytes(1, "Data"),
        "l2_bytes": _cache_bytes(2, "Unified"),
        "l3_bytes": _cache_bytes(3, "Unified"),
        "platform": sys.platform,
        "git_commit": _git_commit(ROOT),
        "source_sha256": _source_digest(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "sizes": sizes,
        "threads": 1,
    }


# ---------------------------------------------------------------------------
# processes


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in SINGLE_THREAD:
        env[name] = "1"
    return env


def _spawn(argv, timeout):
    """Run a worker; returns (spawn time, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              env=_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(argv)}") from None
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return t0, json.loads(lines[-1])


# ---------------------------------------------------------------------------
# metrics


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return sum(values) / len(values)


def _summary(values) -> dict:
    return {"median": _median(values), "min": min(values, default=0.0),
            "max": max(values, default=0.0), "n": len(values)}


def end_to_end(setup_pairs, result) -> tuple[dict, dict]:
    live = result["reps"]
    failed = sum(not r["ok"] for r in live)
    calibrated = [r for r in live if "kernel_s" in r]
    kernel_units = sum(r["kernel_units"] * len(r["kernel_s"]) for r in calibrated)
    kernel_s = sum(sum(r["kernel_s"]) for r in calibrated)
    # seconds of the defining host: mean operation time x (reference / mean kernel unit time)
    run_s = (_mean([r["run_s"] for r in calibrated])
             * workloads.REFERENCE_UNIT_S * kernel_units / kernel_s)
    setup_ratios = [a / b for a, b in setup_pairs]
    values = {
        "run_s": run_s,
        "setup_s": workloads.REFERENCE_SETUP_S * _median(setup_ratios),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_ratio": 1.0 - failed / len(live),
    }
    unit_s = [k / r["kernel_units"] for r in calibrated for k in r["kernel_s"]]
    extra = {"summary": {
        "run_wall_s": _summary([r["run_s"] for r in calibrated]),
        "kernel_unit_s": _summary(unit_s),
        "setup_wall_s": _summary([a for a, _ in setup_pairs]),
        "setup_reference_s": _summary([b for _, b in setup_pairs]),
        "setup_ratio": _summary(setup_ratios),
    }}
    return values, extra


def per_layer(result) -> tuple[dict, dict]:
    """Per-layer values: medians over the traced repetitions of each quantity."""
    trace = result["trace"]
    reps = result["reps"]
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    names = set()
    for totals in trace["totals"].values():
        names.update(totals)
    names.update(trace["absent"], trace["bound_at"])

    per_rep = []
    for r in traced:
        totals = trace["totals"][str(r["rep"])]
        vals = {}
        covered = 0.0
        for name in names:
            t = totals.get(name, {"calls": 0, "self_s": 0.0, "path_steps": 0, "bytes": 0,
                                  "repeats": 0})
            if name != "bench.run":
                covered += t["self_s"]
            vals[f"{name}.calls"] = t["calls"]
            vals[f"{name}.self_s"] = t["self_s"]
            vals[f"{name}.ns_per_path_step"] = (
                t["self_s"] / t["path_steps"] * 1e9 if t["path_steps"] else 0.0)
            vals[f"{name}.repeat_ratio"] = t["repeats"] / t["calls"] if t["calls"] else 0.0
            vals[f"{name}.mb_per_s"] = t["bytes"] / 1e6 / t["self_s"] if t["bytes"] else 0.0
            vals[f"{name}.bytes"] = t["bytes"]
        vals["warnings.count"] = r["warnings"]
        vals["trace.coverage"] = covered / r["run_s"]
        vals["trace.bookkeeping_s"] = trace["bookkeeping_s"][str(r["rep"])]
        per_rep.append(vals)

    keys = set().union(*per_rep) if per_rep else set()
    values = {k: _median([v[k] for v in per_rep]) for k in sorted(keys)}
    traced_s = _median([r["run_s"] for r in traced])
    untraced_s = _median([r["run_s"] for r in untraced])
    values["trace.run_s"] = traced_s
    values["trace.untraced_run_s"] = untraced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.absent"] = len(trace["absent"])
    extra = {"absent": trace["absent"], "bound_at": trace["bound_at"],
             "traced_reps": len(traced), "untraced_reps": len(untraced),
             "spans": trace["spans"]}
    return values, extra


# ---------------------------------------------------------------------------
# main


def run(args) -> dict:
    if not (ROOT / "src" / "pathcoupling" / "__init__.py").is_file():
        raise BenchError(f"no pathcoupling sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    mode = "smoke" if args.smoke else "full"
    sizes = workloads.SIZES[args.workload][mode]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    if args.smoke:
        common.append("--smoke")
    try:
        setup = {"live": [], "reference": []}

        def probe(kind):
            flag = "--setup-only" if kind == "live" else "--reference"
            t0, out = _spawn([*common, flag], PROBE_TIMEOUT_S)
            setup[kind].append(out["ready"] - t0)

        # a traced run reports no set-up time; a smoke run only exercises the code
        pairs = 0 if args.trace else 2 if args.smoke else SETUP_PAIRS
        for i in range(pairs - 1):  # alternate the order, so order effects cancel
            for kind in (("live", "reference") if i % 2 == 0 else ("reference", "live")):
                probe(kind)
        argv = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        t0, result = _spawn(argv, args.seconds + PROBE_TIMEOUT_S)
        setup["live"].append(result["ready"] - t0)
        if pairs:
            probe("reference")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left only when another run still uses it
            workdir.parent.rmdir()
    imported = Path(result["versions"]["pathcoupling_file"]).resolve()
    if ROOT / "src" not in imported.parents:
        raise BenchError(f"imported pathcoupling from {imported}, not from this checkout")
    setup_pairs = list(zip(setup["live"], setup["reference"]))

    if args.trace:
        values, extra = per_layer(result)
        wanted = spec["per_layer"]
    else:
        values, extra = end_to_end(setup_pairs, result)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics named in BENCHMARK.json were not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    live = result["reps"]
    failed = sum(not r["ok"] for r in live)
    report = {
        "provenance": {**provenance(args, sizes), **result["versions"]},
        "setup_samples_s": setup,
        "peak_rss_mb": result["peak_rss_mb"],
        "loop_s": result["loop_s"],
        "digests": result["digests"],
        "reps": result["reps"],
        "failures": [r["error"] for r in live if not r["ok"]],
        "values": values,
        **extra,
    }
    return {
        "report": report,
        "result": {"correct": failed == 0, "attempted": len(live), "failed": failed,
                   "metrics": metrics},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        out = run(args)
    except (BenchError, OSError, ValueError, KeyError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    result = out["result"]
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted={result['attempted']} failed={result['failed']} "
          f"fail_ratio = {result['failed'] / result['attempted']:.6g} 1")
    print(json.dumps({"report": out["report"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
