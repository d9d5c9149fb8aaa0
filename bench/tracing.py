"""Nested spans around the library's public functions, recorded from outside.

The tracer wraps each target function at every place the package binds
it: ``pathcoupling.sde.ito_map`` is also bound as ``coupling.ito_map``
and ``cost`` binds ``decompose`` and ``trace_max_rotation``, so the
wrapper replaces the same function object under every module attribute
that holds it.  Nothing under ``src/`` is edited, and ``uninstall``
puts the originals back.

Two kinds of target:

* span targets record one span per call (name, start, end, parent, run
  id), plus the path-steps ``N * n`` of the result and, for ``pathio``,
  the size of the file read or written;
* kernel targets are the per-step ``linalg`` checks, called thousands of
  times per operation.  They are aggregated per parent span: calls,
  seconds, and how many calls saw exactly the previous call's input.

A span's self time is its duration minus its children's durations and
minus the tracer's own bookkeeping inside it.  Spans stay in memory
until the run ends.  A target that no longer exists in the package is
reported as absent and simply has zero calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field

#: Functions recorded as one span per call, by layer (module) name.
SPAN_TARGETS = (
    ("sde", "sample_brownian"),
    ("sde", "ito_map"),
    ("sde", "inverse_ito_map"),
    ("sde", "decompose"),
    ("coupling", "couple_brownians"),
    ("coupling", "couple_sdes"),
    ("coupling", "rotation_monge"),
    ("coupling", "composed_monge"),
    ("coupling", "monge_sde"),
    ("cost", "closed_form_optimal"),
    ("cost", "estimate"),
    ("verify", "wiener_marginal_test"),
    ("verify", "realized_covariation"),
    ("pathio", "write_csv"),
    ("pathio", "read_csv"),
    ("pathio", "write_binary"),
    ("pathio", "read_binary"),
    ("pathio", "write_json"),
    ("pathio", "write_reports_jsonl"),
    ("pathio", "read_reports_jsonl"),
    ("cli", "main"),
    ("cli", "build_coupled"),
)

#: Per-step kernels, aggregated per parent span.
KERNEL_TARGETS = (
    ("linalg", "orthogonality_defect"),
    ("linalg", "correlation_margin"),
    ("linalg", "psd_sqrt"),
    ("linalg", "trace_max_rotation"),
    ("linalg", "trace_max_rotation_batch"),
)

PACKAGE = "pathcoupling"


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    run_id: int
    end: float = 0.0
    child_s: float = 0.0
    bookkeeping_s: float = 0.0
    path_steps: int = 0
    bytes: int = 0
    kernels: dict = field(default_factory=dict)  # name -> [calls, seconds, repeats]

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s - self.bookkeeping_s

    def as_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "run_id": self.run_id, "self_s": self.self_s,
            "path_steps": self.path_steps, "bytes": self.bytes, "kernels": self.kernels,
        }


def _path_steps(result) -> int:
    """N * n of a returned ensemble (first element of a tuple), else 0."""
    if isinstance(result, tuple) and result:
        result = result[0]
    values = getattr(result, "values", None)
    if values is None:
        values = getattr(result, "x", None)
    shape = getattr(values, "shape", ())
    if len(shape) == 3:
        return int(shape[0]) * (int(shape[1]) - 1)
    if len(shape) == 2:  # a single SamplePath
        return int(shape[0]) - 1
    return 0


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    def __init__(self, span_targets=SPAN_TARGETS):
        self.span_targets = span_targets
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.bound_at: dict[str, list[str]] = {}
        self.run_id = 0
        self._stack: list[Span] = []
        self._prev_input: dict = {}
        self._in_kernel = False
        self._patches: list = []

    # -- spans -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name) -> Span:
        parent = self._stack[-1].id if self._stack else None
        rec = Span(len(self.spans), name, time.perf_counter(), parent, self.run_id)
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def _close(self, rec: Span):
        rec.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += rec.end - rec.start

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        measure_file = name.startswith("pathio.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                t0 = time.perf_counter()
                rec.path_steps = _path_steps(result)
                if measure_file and args:
                    rec.bytes = _file_size(args[0])
                rec.bookkeeping_s += time.perf_counter() - t0
            return result

        return wrapper

    def _kernel_wrapper(self, name, fn):
        import numpy as np

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_kernel or not self._stack:
                return fn(*args, **kwargs)
            self._in_kernel = True
            try:
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                t1 = time.perf_counter()
            finally:
                self._in_kernel = False
            parent = self._stack[-1]
            agg = parent.kernels.setdefault(name, [0, 0.0, 0])
            agg[0] += 1
            agg[1] += t1 - t0
            if args:
                current = np.asarray(args[0])
                prev = self._prev_input.get(name)
                if prev is not None and prev.shape == current.shape and np.array_equal(prev, current):
                    agg[2] += 1
                self._prev_input[name] = current.copy()
            parent.child_s += t1 - t0
            parent.bookkeeping_s += time.perf_counter() - t1
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every target under every package module attribute bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        targets = [(t, self._span_wrapper) for t in self.span_targets]
        targets += [(t, self._kernel_wrapper) for t in KERNEL_TARGETS]
        self.absent = []
        for (layer, fname), make in targets:
            name = f"{layer}.{fname}"
            try:
                home = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                home = None
            fn = getattr(home, fname, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = make(name, fn)
            sites = []
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
                        sites.append(f"{mod.__name__.removeprefix(PACKAGE + '.')}.{attr}")
            self.bound_at[name] = sorted(sites)

    def uninstall(self):
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()
        self._prev_input.clear()

    # -- summary -----------------------------------------------------------

    def totals(self, run_id) -> dict:
        """Per-name calls, self seconds, path-steps, bytes and repeats in one run."""
        out = {}

        def entry(name):
            return out.setdefault(
                name, {"calls": 0, "self_s": 0.0, "path_steps": 0, "bytes": 0, "repeats": 0}
            )

        for rec in self.spans:
            if rec.run_id != run_id:
                continue
            e = entry(rec.name)
            e["calls"] += 1
            e["self_s"] += rec.self_s
            e["path_steps"] += rec.path_steps
            e["bytes"] += rec.bytes
            for kname, (calls, seconds, repeats) in rec.kernels.items():
                k = entry(kname)
                k["calls"] += calls
                k["self_s"] += seconds
                k["repeats"] += repeats
        return out

    def bookkeeping_s(self, run_id) -> float:
        return sum(r.bookkeeping_s for r in self.spans if r.run_id == run_id)
