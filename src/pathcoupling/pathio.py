"""Serialization: columnar CSV, compact binary, and JSON reports.

CSV carries one row per (path, step) with columns ``path_id, step, t,
x_1..x_d`` (plus ``y_1..y_d`` for coupled data) and round-trips values
exactly via %.17g; its bytes are ``np.savetxt``'s on POSIX.  The binary
format is the magic ``PCPL1``, a little-endian header ``<IIQQ`` of (d,
n_steps, N, seed), then one leg (a plain ensemble) or the x and y legs of
a coupled ensemble as little-endian float64.  ``write_binary`` returns
the sha256 of its bytes, and ``read_binary`` can refuse a file whose
bytes do not match one.

Each reader and writer holds the ensemble and one block of paths, never a
second full-size copy.  The writers format or copy a block of paths at a
time.  ``read_binary`` hashes a block and copies it into time-major
storage, laid out as the constructors lay out every ensemble (see
:mod:`pathcoupling.sde`); ``read_csv`` parses one block of whole paths
at a time into it, in one pass that takes the rows in (path_id, step)
order and stops at the first row out of place.  A statistic of a
read-back ensemble has the same bytes as one of the ensemble built afresh.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
import struct

import numpy as np

from .coupling import CoupledEnsemble
from .errors import ConfigError, DomainError
from .sde import PathEnsemble, TimeGrid
from .verify import TestReport

MAGIC = b"PCPL1"
_HEADER = struct.Struct("<IIQQ")
_BLOCK_ROWS = 4096  # CSV rows formatted by one % operation, or parsed by one loadtxt, at least a path
_BLOCK_BYTES = 1 << 18  # binary bytes of a leg written or read as one block of whole paths


def _parts(obj):
    if isinstance(obj, CoupledEnsemble):
        return obj.grid, (obj.x, obj.y), obj.seed
    if isinstance(obj, PathEnsemble):
        return obj.grid, (obj.values,), obj.seed
    raise ConfigError(f"cannot serialize object of type {type(obj).__name__}")


# ---------------------------------------------------------------------------
# CSV


def _csv_header(d, n_legs):
    return ["path_id", "step", "t"] + [f"{v}_{i + 1}" for v in "xy"[:n_legs] for i in range(d)]


def write_csv(path, obj) -> None:
    grid, blocks, _ = _parts(obj)
    n_paths, n_rows, d = blocks[0].shape
    # one row template per path: path_id, step and t are literal text, only the values stay open
    values = ",%.17g" * (len(blocks) * d)
    rows = [f",{k},{'%.17g' % t}{values}" for k, t in enumerate(grid.times)]
    per_block = max(1, _BLOCK_ROWS // n_rows)
    buf = np.empty((min(per_block, n_paths), n_rows, len(blocks) * d))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_csv_header(d, len(blocks))) + "\n")
        for p0 in range(0, n_paths, per_block):
            part = buf[: n_paths - p0]
            for b, blk in enumerate(blocks):
                part[:, :, b * d : (b + 1) * d] = blk[p0 : p0 + len(part)]
            template = "".join(f"{p}" + f"\n{p}".join(rows) + "\n" for p in range(p0, p0 + len(part)))
            fh.write(template % tuple(part.ravel().tolist()))


def read_csv(path):
    """Read back an ensemble written by :func:`write_csv`.

    The file must be as ``write_csv`` writes it: its header, then one row
    for each (path_id, step) of the grid in that order, with its step's
    grid time as ``t``. The first fault, in file order, is a ConfigError
    naming the file and the row. CSV carries no seed, so the result
    reports seed 0.
    """
    with open(path, "rb") as fh:  # the header, and N and n+1 from the last row
        header = fh.readline().decode(errors="replace").strip().split(",")
        start, size = fh.tell(), fh.seek(0, os.SEEK_END)
        fh.seek(max(start, size - (1 << 16)))
        last = fh.read().strip().rsplit(b"\n", 1)[-1]
    n_legs = 1 + ("y_1" in header)
    d = (len(header) - 3) // n_legs
    if d < 1 or header != _csv_header(d, n_legs):
        raise ConfigError(f"{path}: not an ensemble CSV: header {','.join(header)!r} is not path_id,step,t,x_1..x_d[,y_1..y_d]")
    if not last:
        raise ConfigError(f"{path}: no rows after the header")
    top = re.match(rb"(\d+),(\d+),", last)  # N - 1 and n
    n_paths, n_rows = (int(key) + 1 for key in top.groups()) if top else (0, 0)
    n_cols = 3 + n_legs * d
    if not (n_rows > 1 and 2 * n_cols * n_paths * n_rows <= size):  # 2 bytes a column
        raise ConfigError(f"{path}: path_id and step must be non-negative integers, and the last row must name a step "
                          f">= 1 and no more paths than {size} bytes hold, not {last[:40].decode(errors='replace')!r}")
    per = max(1, _BLOCK_ROWS // n_rows)
    ids, steps = np.divmod(np.arange(per * n_rows), n_rows)
    keys = np.column_stack((ids, steps, TimeGrid(n_rows - 1).times[steps]))  # path_id - p0, step, t
    first = ",".join("0" * n_cols) + "\n"  # numpy holds each row to the column count of the first
    legs = np.empty((n_legs, n_rows, n_paths, d))
    with open(path, errors="replace") as fh:
        fh.readline()
        for p0 in range(0, n_paths, per):  # a block of whole paths, rows r0 + 1 .. of the file
            m, r0 = min(per, n_paths - p0), p0 * n_rows
            try:
                rows = np.loadtxt(itertools.chain((first,), itertools.islice(fh, m * n_rows)),
                                  delimiter=",", comments=None, ndmin=2)[1:]
            except ValueError as err:  # numpy counts the first row too: its row R is the file's r0 + R - 1
                shifted = re.sub(r"(?<=at row )\d+", lambda row: str(int(row[0]) + r0 - 1), str(err))
                raise ConfigError(f"{path}: {shifted}") from None
            got = rows[:, :3] - (p0, 0, 0)
            bad = np.flatnonzero(np.any(got != keys[: len(got)], axis=1))
            i = int(bad[0]) if bad.size else len(got)
            if i < m * n_rows:
                p, k = divmod(r0 + i, n_rows)
                if i < len(got) and np.array_equal(got[i, :2], keys[i, :2]):
                    t, expected = float(got[i, 2]), float(keys[i, 2])
                    raise ConfigError(f"{path}: the row for path_id {p}, step {k} has t {t!r}, not {expected!r}")
                raise ConfigError(f"{path}: no row for path_id {p}, step {k}: a row is missing or repeated, "
                                  f"or row {r0 + i + 1} is out of (path_id, step) order")
            legs[:, :, p0 : p0 + m] = rows[:, 3:].reshape(m, n_rows, n_legs, d).transpose(2, 1, 0, 3)
        if extra := sum(1 for line in fh if line.strip()):
            raise ConfigError(f"{path}: ragged ensemble CSV: {n_paths * n_rows + extra} rows for {n_paths} paths, "
                              f"{n_rows} steps+1")
    grid, (x, *y) = TimeGrid(n_rows - 1), np.swapaxes(legs, 1, 2)
    if not y:
        return PathEnsemble(grid=grid, values=x, seed=0)
    return CoupledEnsemble(grid=grid, x=x, y=y[0], seed=0)


# ---------------------------------------------------------------------------
# binary


def write_binary(path, obj) -> str:
    """Write ``obj`` in the binary format; the sha256 hex digest of the bytes written."""
    grid, blocks, seed = _parts(obj)
    n_paths, n_rows, d = blocks[0].shape
    per = max(1, _BLOCK_BYTES // max(1, 8 * n_rows * d))
    body = (np.ascontiguousarray(leg[p0 : p0 + per], dtype="<f8").data for leg in blocks for p0 in range(0, n_paths, per))
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in itertools.chain((MAGIC, _HEADER.pack(d, grid.n_steps, n_paths, seed)), body):
            fh.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


def read_binary(path, sha256: str | None = None):
    """Read back an ensemble written by :func:`write_binary`.

    With ``sha256``, a file whose bytes do not have that hex digest is a
    ConfigError; the bytes hashed are the bytes parsed, read once.
    """
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC) + _HEADER.size)
        digest = hashlib.sha256(head)
        magic, header = head[: len(MAGIC)], head[len(MAGIC) :]
        if magic != MAGIC:
            raise ConfigError(f"{path}: not a path ensemble file (bad magic {magic!r})")
        if len(header) != _HEADER.size:
            raise ConfigError(f"{path}: truncated header")
        d, n_steps, n_paths, seed = _HEADER.unpack(header)
        size = os.fstat(fh.fileno()).st_size - len(head)
        block = n_paths * (n_steps + 1) * d * 8
        if n_steps == 0 or block == 0 or size not in (block, 2 * block):
            raise ConfigError(f"{path}: header d={d}, n_steps={n_steps}, N={n_paths} does not fit a payload of {size} bytes")
        per = max(1, _BLOCK_BYTES // (8 * (n_steps + 1) * d))
        grid, legs, buf = TimeGrid(n_steps), [], np.empty((min(per, n_paths), n_steps + 1, d), dtype="<f8")
        for _ in range(size // block):  # a leg at a time, a block of its paths at a time
            leg = np.empty((n_steps + 1, n_paths, d))  # time-major, as the constructors store it
            for p0 in range(0, n_paths, per):
                part = buf[: n_paths - p0]
                if fh.readinto(part.data) != part.nbytes:
                    raise ConfigError(f"{path}: truncated while it was read")
                if sha256 is not None:
                    digest.update(part.data)
                leg[:, p0 : p0 + len(part)] = part.swapaxes(0, 1)
            legs.append(PathEnsemble(grid=grid, values=leg.swapaxes(0, 1), seed=int(seed)))
    if sha256 is not None and digest.hexdigest() != sha256:
        raise ConfigError(f"{path}: contents do not match sha256 {sha256}")
    if len(legs) == 1:
        return legs[0]
    return CoupledEnsemble(grid=grid, x=legs[0].values, y=legs[1].values, seed=int(seed))


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
