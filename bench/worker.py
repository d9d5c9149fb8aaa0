"""One workload process: set up, then repeat the operation for a fixed time.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH`` pointing
at the checkout's ``src`` and every BLAS/OpenMP pool limited to one
thread.  It prints one JSON object as its last stdout line.

``--setup-only`` stops once the workload is ready and reports the
moment it got there (``time.monotonic``, which on Linux is one clock
for every process, so the parent can subtract its own spawn time).
``--reference`` does the same for the reference set-up of
``calibration.py`` instead of the workload's.

Otherwise the operation is repeated until ``--seconds`` have passed; no
repetition starts that would likely end more than half a repetition past
the deadline.

* ``--trace 0``: one operation alone (it sets ``peak_rss_mb``), then
  operations with the calibration kernel run next to each phase.  They
  come in twos, the kernel going first in the one and the phase first in
  the other, because a phase runs slower right after other work.
* ``--trace 1``: operations alternating traced and untraced, starting
  traced, so one process gives both the per-layer numbers and the
  tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

import workloads


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--reference", action="store_true")
    p.add_argument("--workdir", required=True)
    return p.parse_args(argv)


def _versions(work):
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "pathcoupling": work.lib.package.__version__,
            "pathcoupling_file": work.lib.package.__file__}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _no_span(name):
    return contextlib.nullcontext()


def _fail(record, err):
    record["ok"] = False
    record["error"] = f"{type(err).__name__}: {err}"
    record["traceback"] = traceback.format_exc(limit=6)


def _finish(record, outcome):
    if outcome is not None:
        record["phases"] = outcome.phases
        record["info"] = outcome.info


def _rep(work, tracer, run_id):
    """Run the operation once; returns (record, outcome or None)."""
    traced = tracer is not None
    span = tracer.span if traced else _no_span
    record = {"rep": run_id, "traced": traced, "ok": True, "error": None}
    outcome = None
    with warnings.catch_warnings(record=True) if traced else contextlib.nullcontext() as caught:
        if traced:
            warnings.simplefilter("always")
            tracer.run_id = run_id
            tracer.install()
        t0 = time.perf_counter()
        try:
            with span("bench.run"):
                outcome = work.run(span)
        except Exception as err:  # a failed operation is counted, not fatal
            _fail(record, err)
        finally:
            record["run_s"] = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
    if traced:
        record["warnings"] = len(caught)
    _finish(record, outcome)
    return record, outcome


def _calibrated_rep(work, kernel, units, kernel_first, run_id):
    """The operation once, with ``units`` kernel units before or after each phase.

    ``phase_s[i]`` is the wall time of phase ``i`` and ``kernel_s[i]`` that
    of the kernel units run next to it.
    """
    record = {"rep": run_id, "traced": False, "ok": True, "error": None,
              "kernel_first": kernel_first, "kernel_units": units,
              "phase_s": [], "kernel_s": []}
    outcome = None
    gen = work.steps(_no_span)
    done = False
    while not done:
        if kernel_first:
            record["kernel_s"].append(kernel.run(units))
        t0 = time.perf_counter()
        try:
            next(gen)
        except StopIteration as stop:
            outcome = stop.value
            done = True
        except Exception as err:  # a failed operation is counted, not fatal
            _fail(record, err)
            done = True
        finally:
            record["phase_s"].append(time.perf_counter() - t0)
        if not kernel_first:
            record["kernel_s"].append(kernel.run(units))
    record["run_s"] = sum(record["phase_s"])
    _finish(record, outcome)
    return record, outcome


def main(argv=None) -> int:
    args = _parse(argv)
    if args.reference:
        from calibration import reference_setup

        reference_setup()
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    work = workloads.setup(args.workload, args.seed, args.smoke, Path(args.workdir))
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = kernel = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    work.prepare()
    reps, digests = [], {}

    def keep(record, outcome):
        if outcome is not None:
            record["digests"] = outcome.digests()
            if record["digests"] != digests.setdefault("live", record["digests"]):
                record["ok"] = False
                record["error"] = "outputs differ from the first repetition's"
        work.cleanup()
        reps.append(record)

    loop_start = time.perf_counter()
    if tracer is None:  # the solo operation, before the kernel's arrays exist
        keep(*_rep(work, None, 0))
    peak_rss_mb = _peak_rss_mb()
    if tracer is None:
        from calibration import Kernel

        kernel = Kernel()

    durations = []
    while True:
        start = time.perf_counter()
        if tracer is not None:
            keep(*_rep(work, tracer if len(reps) % 2 == 0 else None, len(reps)))
        else:  # one of each order: a phase runs slower right after other work
            for kernel_first in (True, False):
                keep(*_calibrated_rep(work, kernel, workloads.KERNEL_UNITS[args.workload],
                                      kernel_first, len(reps)))
        durations.append(time.perf_counter() - start)
        if tracer is not None and len(reps) < 2:
            continue
        if time.perf_counter() - loop_start + 0.5 * statistics.median(durations) >= args.seconds:
            break

    result = {
        "ready": ready,
        "reps": reps,
        "digests": digests,
        "loop_s": time.perf_counter() - loop_start,
        "peak_rss_mb": peak_rss_mb,
        "peak_rss_mb_process": _peak_rss_mb(),
        "versions": _versions(work),
        "sizes": work.sizes,
    }
    if tracer is not None:
        result["trace"] = {
            "absent": tracer.absent,
            "bound_at": tracer.bound_at,
            "totals": {r["rep"]: tracer.totals(r["rep"]) for r in reps if r["traced"]},
            "bookkeeping_s": {r["rep"]: tracer.bookkeeping_s(r["rep"]) for r in reps if r["traced"]},
            "spans": [s.as_dict() for s in tracer.spans],
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
