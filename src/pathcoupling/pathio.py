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
:mod:`pathcoupling.sde`); ``read_csv`` parses a file in (path_id, step)
order into it a block of whole paths at a time.  Any other CSV, out of
order or at fault, is read as one whole table and sorted; a missing or
repeated row, or a ``t`` that is not its step's grid time, is a
ConfigError.  A statistic of a read-back ensemble has the same bytes as
one of the ensemble built afresh.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
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


def write_csv(path, obj) -> None:
    grid, blocks, _ = _parts(obj)
    n_paths, n_rows, d = blocks[0].shape
    header = ["path_id", "step", "t"] + [f"x_{i + 1}" for i in range(d)]
    if len(blocks) == 2:
        header += [f"y_{i + 1}" for i in range(d)]
    # one row template per path: path_id, step and t are literal text, only the values stay open
    values = ",%.17g" * (len(blocks) * d)
    rows = [f",{k},{'%.17g' % t}{values}" for k, t in enumerate(grid.times)]
    per_block = max(1, _BLOCK_ROWS // n_rows)
    buf = np.empty((min(per_block, n_paths), n_rows, len(blocks) * d))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for p0 in range(0, n_paths, per_block):
            part = buf[: n_paths - p0]
            for b, blk in enumerate(blocks):
                part[:, :, b * d : (b + 1) * d] = blk[p0 : p0 + len(part)]
            template = "".join(f"{p}" + f"\n{p}".join(rows) + "\n" for p in range(p0, p0 + len(part)))
            fh.write(template % tuple(part.ravel().tolist()))


def read_csv(path):
    """Read back an ensemble written by :func:`write_csv`.

    Rows may come in any order, but each (path_id, step) of the grid must
    appear exactly once, with its step's grid time as ``t``. CSV carries no
    seed, so the result reports seed 0.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        has_rows = any(line.strip() for line in fh)
    if header[:3] != ["path_id", "step", "t"]:
        raise ConfigError(f"{path}: not an ensemble CSV: header starts with {header[:3]}")
    if not has_rows:
        raise ConfigError(f"{path}: no rows after the header")
    d = sum(1 for name in header if name.startswith("x_"))
    n_legs = 1 + any(name.startswith("y_") for name in header)
    legs = _in_order_legs(path, d, n_legs) or _sorted_legs(path, d, n_legs)
    grid = TimeGrid(legs[0].shape[1] - 1)
    if n_legs == 1:
        return PathEnsemble(grid=grid, values=legs[0], seed=0)
    return CoupledEnsemble(grid=grid, x=legs[0], y=legs[1], seed=0)


def _in_order_legs(path, d, n_legs):
    """The legs of a CSV whose rows all come in (path_id, step) order on the grid, parsed a block
    of whole paths at a time into time-major storage; None for any other file."""
    n_cols = 3 + n_legs * d
    try:
        with open(path, "rb") as fh:  # N and n+1 from the last row
            size = fh.seek(0, os.SEEK_END)
            fh.seek(max(0, size - (1 << 16)))
            n_paths, n_rows = (int(key) + 1 for key in fh.read().rstrip().rsplit(b"\n", 1)[-1].split(b",")[:2])
        if not (n_paths > 0 and n_rows > 1 and 2 * n_cols * n_paths * n_rows <= size):  # 2 bytes a column
            return None
        per = max(1, _BLOCK_ROWS // n_rows)
        ids, steps = np.divmod(np.arange(per * n_rows), n_rows)
        keys = np.column_stack((ids, steps, TimeGrid(n_rows - 1).times[steps]))  # path_id - p0, step, t
        legs = np.empty((n_legs, n_rows, n_paths, d))
        with open(path) as fh:
            fh.readline()
            for p0 in range(0, n_paths, per):
                first, m = fh.readline(), min(per, n_paths - p0)
                if not first.strip():  # the file ended, or loadtxt could find no row (and warn)
                    return None
                rows = np.loadtxt(itertools.chain((first,), itertools.islice(fh, m * n_rows - 1)),
                                  delimiter=",", comments=None, ndmin=2)
                if rows.shape != (m * n_rows, n_cols) or np.any(rows[:, :3] - (p0, 0, 0) != keys[: len(rows)]):
                    return None
                legs[:, :, p0 : p0 + m] = rows[:, 3:].reshape(m, n_rows, n_legs, d).transpose(2, 1, 0, 3)
            if any(line.strip() for line in fh):  # an extra row
                return None
    except ValueError:  # a row loadtxt cannot parse, bytes that are not text
        return None
    return list(np.swapaxes(legs, 1, 2))


def _sorted_legs(path, d, n_legs):
    """The legs of any ensemble CSV, from its whole table; every fault is a ConfigError."""
    try:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from None
    if not np.all((table[:, :2] >= 0) & (table[:, :2] < np.iinfo(np.int32).max)):
        raise ConfigError(f"{path}: path_id and step must be non-negative integers")
    n_paths, n_rows = (int(top) + 1 for top in table[:, :2].max(axis=0))
    if n_paths * n_rows != table.shape[0]:
        raise ConfigError(f"{path}: ragged ensemble CSV: {table.shape[0]} rows for {n_paths} paths, {n_rows} steps+1")
    table = table[np.lexsort((table[:, 1], table[:, 0]))]  # stable: rows in order stay as they are
    ids, steps = (table[:, j].reshape(n_paths, n_rows) for j in (0, 1))
    bad = np.flatnonzero((ids != np.arange(n_paths)[:, None]) | (steps != np.arange(n_rows)))
    if bad.size:  # the first p * n_rows + k whose row is not keyed (path_id p, step k)
        p, k = divmod(int(bad[0]), n_rows)
        raise ConfigError(f"{path}: no row for path_id {p}, step {k}: a row is missing or repeated")
    times = TimeGrid(n_rows - 1).times
    bad = np.flatnonzero(table[:, 2].reshape(n_paths, n_rows) != times)  # %.17g reads back exactly
    if bad.size:
        p, k = divmod(int(bad[0]), n_rows)
        t, expected = float(table[bad[0], 2]), float(times[k])
        raise ConfigError(f"{path}: the row for path_id {p}, step {k} has t {t!r}, not {expected!r}")
    return [table[:, 3 + i * d : 3 + (i + 1) * d].reshape(n_paths, n_rows, d) for i in range(n_legs)]


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
        if block == 0 or size not in (block, 2 * block):
            raise ConfigError(f"{path}: payload of {size} bytes does not hold 1 or 2 blocks of {block}")
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
