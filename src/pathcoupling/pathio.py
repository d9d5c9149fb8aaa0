"""Serialization: columnar CSV, compact binary, and JSON reports.

CSV carries one row per (path, step) with columns
``path_id, step, t, x_1..x_d`` (plus ``y_1..y_d`` for coupled data) and
round-trips values exactly via %.17g; its bytes are ``np.savetxt``'s on
POSIX, formatted from one per-grid row template a block of rows at a time.
A file already in (path_id, step) order is read without a sort, and a
missing or repeated row is a ConfigError.  The binary format is the magic
``PCPL1``, a little-endian header ``<IIQQ`` of (d, n_steps, N, seed),
then the path block(s) as little-endian float64; one block is a plain
ensemble, two blocks are the x and y legs of a coupled ensemble.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .coupling import CoupledEnsemble
from .errors import ConfigError, DomainError
from .sde import PathEnsemble, TimeGrid
from .verify import TestReport

MAGIC = b"PCPL1"
_HEADER = struct.Struct("<IIQQ")
_CSV_BLOCK_ROWS = 4096  # rows formatted by one % operation in write_csv


def _parts(obj):
    if isinstance(obj, CoupledEnsemble):
        return obj.grid, (obj.x, obj.y), obj.seed
    if isinstance(obj, PathEnsemble):
        return obj.grid, (obj.values,), obj.seed
    raise ConfigError(f"cannot serialize object of type {type(obj).__name__}")


# ---------------------------------------------------------------------------
# CSV


def write_csv(path, obj) -> None:
    grid, blocks, _ = _parts(obj)
    n_paths, n_rows, d = blocks[0].shape
    header = ["path_id", "step", "t"] + [f"x_{i + 1}" for i in range(d)]
    if len(blocks) == 2:
        header += [f"y_{i + 1}" for i in range(d)]
    # one row template per grid: step and t are literal text, path_id and values stay open
    values = ",%.17g" * (len(blocks) * d)
    rows = "".join(f"%d,{k},{'%.17g' % t}{values}\n" for k, t in enumerate(grid.times))
    per_block = max(1, _CSV_BLOCK_ROWS // n_rows)
    buf = np.empty((min(per_block, n_paths), n_rows, 1 + len(blocks) * d))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for p0 in range(0, n_paths, per_block):
            part = buf[: n_paths - p0]
            part[:, :, 0] = np.arange(p0, p0 + len(part))[:, None]
            for b, blk in enumerate(blocks):
                part[:, :, 1 + b * d : 1 + (b + 1) * d] = blk[p0 : p0 + len(part)]
            fh.write((rows * len(part)) % tuple(part.ravel().tolist()))


def read_csv(path):
    """Read back an ensemble written by :func:`write_csv`.

    Rows may come in any order, but each (path_id, step) of the grid must
    appear exactly once. CSV carries no seed, so the result reports seed 0.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        has_rows = any(line.strip() for line in fh)
    if header[:3] != ["path_id", "step", "t"]:
        raise ConfigError(f"{path}: not an ensemble CSV: header starts with {header[:3]}")
    if not has_rows:
        raise ConfigError(f"{path}: no rows after the header")
    d = sum(1 for name in header if name.startswith("x_"))
    coupled = any(name.startswith("y_") for name in header)
    try:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from None
    if not np.all((table[:, :2] >= 0) & (table[:, :2] < np.iinfo(np.int32).max)):
        raise ConfigError(f"{path}: path_id and step must be non-negative integers")
    n_paths, n_rows = (int(top) + 1 for top in table[:, :2].max(axis=0))
    if n_paths * n_rows != table.shape[0]:
        raise ConfigError(f"{path}: ragged ensemble CSV: {table.shape[0]} rows for {n_paths} paths, {n_rows} steps+1")
    keys = np.indices((n_paths, n_rows), dtype=np.int32).reshape(2, -1).T  # the grid, in order
    if not np.array_equal(table[:, :2], keys):  # only a file out of order pays for the sort
        table = table[np.lexsort((table[:, 1], table[:, 0]))]
        bad = np.flatnonzero((table[:, :2] != keys).any(axis=1))
        if bad.size:
            p, k = keys[bad[0]]
            raise ConfigError(f"{path}: no row for path_id {p}, step {k}: a row is missing or repeated")
    grid = TimeGrid(n_rows - 1)
    x = table[:, 3 : 3 + d].reshape(n_paths, n_rows, d)
    if not coupled:
        return PathEnsemble(grid=grid, values=x, seed=0)
    y = table[:, 3 + d : 3 + 2 * d].reshape(n_paths, n_rows, d)
    return CoupledEnsemble(grid=grid, x=x, y=y, seed=0)


# ---------------------------------------------------------------------------
# binary


def write_binary(path, obj) -> None:
    grid, blocks, seed = _parts(obj)
    n_paths, _, d = blocks[0].shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(d, grid.n_steps, n_paths, seed))
        for blk in blocks:
            fh.write(np.ascontiguousarray(blk, dtype="<f8").data)


def read_binary(path):
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ConfigError(f"{path}: not a path ensemble file (bad magic {magic!r})")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ConfigError(f"{path}: truncated header")
        d, n_steps, n_paths, seed = _HEADER.unpack(header)
        payload = fh.read()
    block = n_paths * (n_steps + 1) * d * 8
    if block == 0 or len(payload) not in (block, 2 * block):
        raise ConfigError(
            f"{path}: payload of {len(payload)} bytes does not hold 1 or 2 "
            f"blocks of {block}"
        )
    shape = (n_paths, n_steps + 1, d)
    grid = TimeGrid(n_steps)
    x = np.frombuffer(payload[:block], dtype="<f8").reshape(shape).copy()
    if len(payload) == block:
        return PathEnsemble(grid=grid, values=x, seed=int(seed))
    y = np.frombuffer(payload[block:], dtype="<f8").reshape(shape).copy()
    return CoupledEnsemble(grid=grid, x=x, y=y, seed=int(seed))


# ---------------------------------------------------------------------------
# JSON reports


def cost_report(estimate, n_steps: int, seed: int, closed_form=None) -> dict:
    """Assemble the standard cost-report payload."""
    out = {
        "cost_spec": estimate.spec_label,
        "N": estimate.n_pairs,
        "n_steps": int(n_steps),
        "seed": int(seed),
        "mean": estimate.mean,
        "stderr": estimate.stderr,
    }
    if closed_form is not None:
        out["closed_form"] = closed_form.as_dict()
        out["gap"] = estimate.mean - closed_form.mean
    return out


def _write_json_lines(path, payloads, indent=None) -> None:
    # serialise before the file is opened, so a NaN or infinity leaves no file behind;
    # numpy scalars and arrays are written as the Python numbers and lists they hold
    try:
        text = "".join(
            json.dumps(p, indent=indent, sort_keys=True, allow_nan=False, default=lambda obj: obj.tolist()) + "\n"
            for p in payloads
        )
    except ValueError as err:
        raise DomainError(f"cannot write {path}: {err} (NaN or infinity)") from None
    with open(path, "w") as fh:
        fh.write(text)


def write_json(path, payload: dict) -> None:
    _write_json_lines(path, [payload], indent=2)


def write_reports_jsonl(path, reports) -> None:
    _write_json_lines(path, [rep.as_dict() for rep in reports])


def read_reports_jsonl(path):
    reports = []
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            raw = json.loads(line)
            reports.append(TestReport(**raw))
    return reports
