"""Smoke tests of the benchmark itself, at tiny sizes.

Each workload is run once untraced and once traced with the same seed,
through ``run.py`` exactly as the benchmark is invoked.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

_cache = {}


def _bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def _run(workload, trace):
    key = (workload, trace)
    if key not in _cache:
        proc = _bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        _cache[key] = (lines, json.loads(lines[-2])["report"], json.loads(lines[-1]))
    return _cache[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines, _, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(ln.startswith(f"{workload} {m['name']} = ") and ln.endswith(f" {m['unit']}")
                   for ln in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_digest(workload):
    _, untraced, _ = _run(workload, 0)
    _, traced, _ = _run(workload, 1)
    assert untraced["digests"]["live"] and untraced["digests"]["live"] == traced["digests"]["live"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_coverage(workload):
    _, report, result = _run(workload, 1)
    assert report["absent"] == []
    assert math.isfinite(result["metrics"]["trace.coverage"]["value"])


def test_tracer_reports_an_absent_name_with_zero_calls(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    from tracing import SPAN_TARGETS, Tracer

    import pathcoupling.sde as sde

    absent = "coupling.no_such_function"
    tracer = Tracer(span_targets=SPAN_TARGETS + (tuple(absent.split(".")),))
    tracer.install()
    try:
        with tracer.span("bench.run"):
            sde.sample_brownian(sde.TimeGrid(4), 1, 3, 7)
    finally:
        tracer.uninstall()
    assert tracer.absent == [absent]
    totals = tracer.totals(0)
    assert totals.get(absent, {"calls": 0})["calls"] == 0
    assert totals["sde.sample_brownian"]["calls"] == 1


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
