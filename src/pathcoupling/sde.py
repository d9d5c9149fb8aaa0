"""Paths, coefficient fields and the discrete Itô map.

Time is always the unit interval discretised into ``n_steps`` uniform
steps.  A coefficient field is of one of four kinds, drift, diffusion,
rotation or correlation, and is evaluated non-anticipatively: it only
ever sees the step index, the grid time and the path prefix up to that
step (a correlation sees both coupled prefixes).  An SDE model is a
starting point plus a drift and a diffusion field.  The solver is the
left-endpoint Euler recursion

    Z[k+1] = Z[k] + b(k, Z[0..k]) * dt + sigma(k, Z[0..k]) @ dB[k],

and because the recursion is algebraically triangular it has an exact
discrete inverse: given the solution, the driving increments are
recovered by solving sigma against the de-drifted increments step by
step.  Paths live in one container, :class:`PathEnsemble`: the kernels
take an ensemble and return one, and a single path is the N = 1 ensemble.

Randomness discipline: path i of an ensemble draws the normals of
``Generator(PCG64(SeedSequence(seed, spawn_key=(i,))))`` and nothing
else (pair i of ``couple_brownians``: its dB, then its dW), so the output
does not depend on the worker count, the chunking or the block size.
Scaled by sqrt(dt), they are increments, which :func:`_draw` stores in
the knots they become: dB[k] in knot k+1.

Storage convention: the :class:`PathEnsemble` constructor (and so each
leg of a coupled ensemble) fixes the layout.  It stores the paths
time-major, in a C-contiguous (n_steps+1, N, d) buffer, copying only
values not already laid out so, and ``values`` is that buffer's
(N, n_steps+1, d) transposed view.  The public shape is unchanged while
each time slice, such as ``prefix[:, -1]`` inside a coefficient field,
is contiguous, and no kernel or reduction converts a layout.  Every Itô
map, :func:`_ito`, reads dB[k] from knot k+1 and writes Z[k+1] over it.
:func:`_increments` differences a leg of positions into such knots: for
:func:`ito_map` into fresh storage (no public kernel writes to its
argument), and in place for a constructor, so beside its pair
``composed_monge`` holds W, and ``monge_sde`` and ``couple_sdes`` nothing.

One walk, :func:`_walk`, fills that storage for every step kernel:
``z[j+1] = step(k, k * dt, prefix)`` with ``prefix`` the kernel's own
state z[0..j], and a step returns the new state, not the increment.  A
step that overflows, divides by zero, makes an invalid value or raises a
DomainError that names no step fails as a :class:`DomainError` carrying
``.step`` and a message that begins with the kernel and its model or
field, as does a state that goes non-finite (with its path count).  A
field is evaluated only by :meth:`CoefficientField.eval`: a wrong shape,
a floating-point failure inside the field and a value refused by the
kernel's membership check also name the field's kind and label.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, DomainError, SingularDiffusionError
from .linalg import _eliminate, _kernel_dim

__all__ = [
    "TimeGrid",
    "PathEnsemble",
    "CoefficientField",
    "SdeModel",
    "sample_brownian",
    "ito_map",
    "inverse_ito_map",
    "decompose",
    "time_blocks",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, 1] with n_steps steps (n_steps + 1 knots)."""

    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise DimensionError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return 1.0 / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_steps + 1)


@dataclass(frozen=True)
class PathEnsemble:
    """A batch of paths on a common grid; values has shape (N, n_steps+1, d)."""

    grid: TimeGrid
    values: np.ndarray
    seed: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3 or v.shape[1] != self.grid.n_steps + 1:
            raise DimensionError(
                f"ensemble values must have shape (N, n_steps+1, d), got {v.shape}"
            )
        # the one place a layout is decided: time-major storage, copied only if v is not already
        object.__setattr__(self, "values", np.ascontiguousarray(v.swapaxes(0, 1)).swapaxes(0, 1))

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class CoefficientField:
    """A non-anticipative coefficient functional of one of four kinds.

    ``fn(k, t, prefix)`` receives the step index, the grid time t = k*dt
    and the batched path prefix shaped (N, k+1, d); a correlation's
    ``fn(k, t, x_prefix, y_prefix)`` receives both coupled prefixes.  It
    must return

    * drift:                            (d,) shared across paths, or (N, d) per path,
    * diffusion, rotation, correlation: (d, d) shared across paths, or (N, d, d) per path.

    Returning the shared shape whenever the coefficient does not depend
    on the path keeps the per-step membership and singularity checks
    cheap.  The interface enforces non-anticipativity by construction:
    only the prefix is ever passed in.  A field is a process, and every
    kernel relies on three more rules: it is pure in (k, t, prefixes),
    row i of a per-path value reads only row i of each prefix, and it
    sees the grid only through k and t.
    """

    kind: str  # "drift" | "diffusion" | "rotation" | "correlation"
    dim: int
    fn: Callable[..., np.ndarray]
    label: str = "custom"

    def __post_init__(self):
        if self.kind not in ("drift", "diffusion", "rotation", "correlation"):
            raise DimensionError(f"unknown coefficient kind {self.kind!r}")

    def eval(self, k: int, t: float, *prefixes: np.ndarray, admit=None) -> np.ndarray:
        """The value at step k as a float array, shared or per path: (d,) or (N, d) for a drift,
        (d, d) or (N, d, d) for any other kind, N the path count of the first prefix (a None
        prefix admits only the shared shape).  ``admit(value)``, a kernel's memoised membership
        check, refuses a value by raising a DomainError.  A wrong shape, a floating-point failure,
        a refusal and any other Dimension- or DomainError out of the field name its kind and label."""
        try:
            value = np.asarray(self.fn(k, t, *prefixes), dtype=float)
            shape = (self.dim,) if self.kind == "drift" else (self.dim, self.dim)
            n_paths = None if prefixes[0] is None else len(prefixes[0])
            if value.shape != shape and value.shape != (n_paths, *shape):
                raise DimensionError(f"returned shape {value.shape} at step {k}; expected {shape} or {(n_paths, *shape)}")
            if admit is not None:
                admit(value)
            return value
        except FloatingPointError as err:
            raise DomainError(f"{self.kind} {self.label!r}: floating-point {err}") from None
        except (DimensionError, DomainError) as err:
            raise type(err)(f"{self.kind} {self.label!r}: {err}") from None

    @classmethod
    def constant(cls, kind: str, value, d: int | None = None, label: str | None = None) -> "CoefficientField":
        """The field that is ``value`` at every step: a drift broadcast to (d,), any other
        kind a square matrix or a scalar times the d x d identity."""
        value = np.asarray(value, dtype=float)
        if value.ndim == 0 and d is None:
            raise DimensionError(f"a scalar constant {kind} needs an explicit dimension")
        if kind == "drift":
            value = np.broadcast_to(value, (value.size if d is None else d,)).copy()
        else:
            value = float(value) * np.eye(d) if value.ndim == 0 else value.copy()
            if value.ndim != 2 or value.shape[0] != value.shape[1] or d not in (None, len(value)):
                square = "square" if d is None else f"({d}, {d})"
                raise DimensionError(f"constant {kind} must be {square}, got {value.shape}")
        default = "const-matrix" if kind == "diffusion" else f"const({value.tolist()})"
        return cls(kind, len(value), lambda k, t, *prefixes: value, label=label or default)


@dataclass(frozen=True)
class SdeModel:
    """Starting point plus drift and diffusion fields."""

    z0: np.ndarray
    drift: CoefficientField
    diffusion: CoefficientField
    label: str = "custom"

    def __post_init__(self):
        z0 = np.atleast_1d(np.asarray(self.z0, dtype=float))
        object.__setattr__(self, "z0", z0)
        if z0.ndim != 1:
            raise DimensionError("z0 must be a vector")
        if self.drift.dim != z0.size or self.diffusion.dim != z0.size:
            raise DimensionError(
                f"coefficient dims ({self.drift.dim}, {self.diffusion.dim}) "
                f"do not match z0 dim {z0.size}"
            )
        if (self.drift.kind, self.diffusion.kind) != ("drift", "diffusion"):
            kinds = f"{self.drift.kind} and a {self.diffusion.kind}"
            raise DimensionError(f"a model takes a drift and a diffusion, got a {kinds}")

    @property
    def dim(self) -> int:
        return self.z0.size


# ---------------------------------------------------------------------------
# sampling


_BLOCK_BYTES = 1 << 21  # bytes of one input's time slices per block of a walk over steps


def time_blocks(*paths: np.ndarray):
    """Walk (N, n+1, d) paths over their steps: per block, a tuple of each input's
    time-major (h+1, N, d) view of knots lo..lo+h, the next block starting at lo+h.
    h is about ``_BLOCK_BYTES`` of the first input's time slices (at least one step);
    only the last block may be shorter."""
    views = [np.swapaxes(p, 0, 1) for p in paths]
    n, n_paths, d = views[0].shape
    block = max(1, _BLOCK_BYTES // (8 * max(1, n_paths * d)))
    for lo in range(0, n - 1, block):
        yield tuple(v[lo : lo + block + 1] for v in views)


_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


def _pcg_states(seed: int, lo: int, hi: int):
    """The (state, inc) of ``PCG64(SeedSequence(seed, spawn_key=(i,)))`` for i = lo..hi-1 < 2**32.

    SeedSequence hashes the run entropy into a 4-word pool, which is
    ``SeedSequence(seed).pool`` (its zero padding hashes as absent words
    do), mixes the spawn word into every pool word, then hashes the pool
    into 8 output words: those two stages run here across the paths in
    uint32 arithmetic held in uint64, PCG64's 128-bit seeding step on ints.
    """
    # numpy's INIT_A, MULT_A, MIX_MULT_L, MIX_MULT_R, INIT_B and MULT_B, then PCG64's multiplier
    pool = [int(w) for w in np.random.SeedSequence(seed).pool]
    hc = 0x43B0D7E5 * pow(0x931E8875, 4 * max(4, -(-seed.bit_length() // 32)), 1 << 32) & _M32
    key = np.arange(lo, hi, dtype=np.uint64)
    for j in range(4):
        v = key ^ hc
        hc = hc * 0x931E8875 & _M32
        v = v * hc & _M32
        v = 0xCA01F9DD * pool[j] - 0x4973F715 * (v ^ v >> 16) & _M32
        pool[j] = v ^ v >> 16
    hc, words = 0x8B51F9DD, []
    for j in range(8):
        v = pool[j % 4] ^ hc
        hc = hc * 0x58F38DED & _M32
        v = v * hc & _M32
        words.append(v ^ v >> 16)
    for s_hi, s_lo, i_hi, i_lo in zip(*((words[j] | words[j + 1] << 32).tolist() for j in range(0, 8, 2))):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        yield ((s_hi << 64 | s_lo) + inc) * 0x2360ED051FC65DA44385DF649FCCF645 + inc & _M128, inc


_BLOCK_VALUES = 1 << 17  # normals (1 MiB) drawn into one block of paths before it is stored


def _draw(grid: TimeGrid, d: int, n_paths: int, seed, streams: int, n_workers: int):
    """The checked seed and ``streams`` time-major (n_steps+1, N, d) legs, drawn into a block of paths at a time.

    Path i draws its (streams, n_steps, d) normals from
    ``Generator(PCG64(SeedSequence(seed, spawn_key=(i,))))``; each worker
    sets every path's state on one reusable generator, the states of a
    block computed just before it is drawn.  Knot k+1 of leg s holds
    stream s's scaled increment k, which a walk over the leg reads before
    it fills that slot; knot 0 is zero.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    if d < 1 or n_paths < 1:
        raise DimensionError("d and n_paths must both be >= 1")
    if n_paths > 1 << 32:  # a path index is one spawn-key word
        raise DimensionError(f"n_paths must be at most 2**32, got {n_paths}")
    seed = int(seed)
    legs = [np.zeros((grid.n_steps + 1, n_paths, d)) for _ in range(streams)]
    n = grid.n_steps
    root_dt = np.sqrt(grid.dt)
    per_block = max(1, _BLOCK_VALUES // (streams * n * d))

    def fill(lo: int, hi: int):
        gen = np.random.Generator(np.random.PCG64())
        buf = np.empty((min(per_block, hi - lo), streams, n, d))
        for start in range(lo, hi, per_block):
            block = buf[: min(per_block, hi - start)]
            for row, (state, inc) in zip(block, _pcg_states(seed, start, start + len(block))):
                gen.bit_generator.state = {
                    "bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0
                }
                gen.standard_normal(out=row)
            block *= root_dt
            if not np.isfinite(block).all():
                raise DomainError("non-finite values in generated increments")
            for s, leg in enumerate(legs):
                leg[1:, start : start + len(block)] = np.swapaxes(block[:, s], 0, 1)

    if n_workers <= 1 or n_paths < 2 * n_workers:
        fill(0, n_paths)
    else:
        chunk = -(-n_paths // n_workers)
        bounds = [(lo, min(lo + chunk, n_paths)) for lo in range(0, n_paths, chunk)]
        with ThreadPoolExecutor(max_workers=min(n_workers, os.cpu_count() or 1)) as pool:
            list(pool.map(lambda b: fill(*b), bounds))
    return seed, legs


def sample_brownian(
    grid: TimeGrid, d: int, n_paths: int, seed: int, n_workers: int = 1
) -> PathEnsemble:
    """Standard Brownian ensemble started at 0."""
    seed, (z,) = _draw(grid, d, n_paths, seed, 1, n_workers)
    for k in range(2, len(z)):  # the running sum; z[1] is dB[0] itself, as a -0.0 draw must stay
        z[k] += z[k - 1]
    return PathEnsemble(grid=grid, values=np.swapaxes(z, 0, 1), seed=seed)


# ---------------------------------------------------------------------------
# coefficient evaluation plumbing


def _apply(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """mat @ vec per path; mat is (d, d) shared or (N, d, d), vec is (N, d)."""
    if mat.shape[-1] == 1:  # d = 1: a product, its exact zeros made +0 as matmul's are
        out = vec * mat[..., 0]
        out += 0.0
        return out
    if mat.ndim == 2:
        return vec @ mat.T
    return np.einsum("nij,nj->ni", mat, vec)


class ValueMemo:
    """Reuse ``fn(mat)`` while a shared (d, d) matrix keeps its value.

    Keyed by the bytes, not the object: a field may refill one buffer in
    place, and a new value is recomputed (and re-checked) at the step
    where it appears.  Per-path (N, d, d) batches are never cached.
    """

    def __init__(self, fn):
        self.fn = fn
        self.key = None
        self.value = None

    def __call__(self, mat: np.ndarray, *args):
        """``fn(mat, *args)``; ``args`` (such as a determinant of ``mat``) must follow from ``mat``."""
        if mat.ndim != 2:
            return self.fn(mat, *args)
        key = mat.tobytes()
        if key != self.key:
            self.value = self.fn(mat, *args)
            self.key = key
        return self.value


def _ensemble(paths, what: str, model: SdeModel) -> PathEnsemble:
    """``paths``, provided it is a PathEnsemble of the model's dimension."""
    if not isinstance(paths, PathEnsemble):
        raise DimensionError(f"expected a PathEnsemble, got {type(paths).__name__}")
    if paths.d != model.dim:
        raise DimensionError(f"{what} dim {paths.d} does not match model dim {model.dim}")
    return paths


def _walk(z: np.ndarray, dt: float, step, what: str, lo: int = 0, n_paths: int = 1) -> np.ndarray:
    """Fill time-major (h+1, N, d) storage by ``z[j+1] = step(k, k*dt, prefix)``, k = lo + j and
    ``prefix`` the (N, j+1, d) view of z[0..j]; return the (N, h+1, d) view.  A state one path wide
    stands for ``n_paths``: a step's first per-path rows widen it, knots 0..j copied across them, and
    no state narrows.  Failures carry k (module docstring) and begin with ``what``, the kernel and its
    model or field.  Every step adds to its state, so a state that went non-finite stays so: only
    the last knot is checked, and the walk searched for the step only when that fails."""
    paths = np.swapaxes(z, 0, 1)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for j in range(len(z) - 1):
            k = lo + j
            try:
                value = step(k, k * dt, paths[:, : j + 1])
            except FloatingPointError as err:
                raise DomainError(f"{what}: floating-point {err}", step=k) from None
            except DomainError as err:  # one that names no step is given this one, and ``what``
                raise (err if err.step is not None else type(err)(f"{what}: {err}", step=k)) from None
            if len(value) > z.shape[1]:
                wide = np.empty((len(z), len(value), z.shape[2]))
                wide[: j + 1] = z[: j + 1]
                z, paths = wide, np.swapaxes(wide, 0, 1)
            z[j + 1] = value
    if not np.isfinite(z[-1]).all():
        bad = ~np.isfinite(z).all(axis=2)
        j = int(bad.any(axis=1).argmax())
        count = int(bad[j].sum()) if z.shape[1] > 1 else n_paths
        raise DomainError(f"{what}: the state went non-finite on {count} path(s)", step=lo + max(j, 1) - 1)
    return paths


# ---------------------------------------------------------------------------
# the Itô map and its inverse


def ito_map(model: SdeModel, driver: PathEnsemble) -> PathEnsemble:
    """Push a driving ensemble through the Euler recursion.

    The driver is read as Brownian increments dB[k] = driver[k+1] -
    driver[k]; its starting value is ignored.
    """
    drv = np.swapaxes(_ensemble(driver, "driver", model).values, 0, 1)  # the driver's time-major storage
    values = _ito(model, _increments(drv, np.empty_like(drv)), driver.grid.dt)
    return PathEnsemble(grid=driver.grid, values=values, seed=driver.seed)


def _increments(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Knot k+1 of time-major ``out`` (``z`` itself by default) set to z[k+1] - z[k], a slice at a time, last first."""
    out = z if out is None else out
    for k in range(len(z) - 1, 0, -1):
        np.subtract(z[k], z[k - 1], out=out[k])
    return out


def _ito(model: SdeModel, z: np.ndarray, dt: float) -> np.ndarray:
    """The Euler recursion of ``model`` over time-major (n+1, N, d) storage whose knot k+1 holds dB[k], read by
    step k before it writes Z[k+1] there (knot 0 is set to z0); returns the (N, n+1, d) view."""
    z[0] = model.z0

    def step(k, t, prefix):
        b = model.drift.eval(k, t, prefix)
        s = model.diffusion.eval(k, t, prefix)
        return prefix[:, -1] + b * dt + _apply(s, z[k + 1])

    return _walk(z, dt, step, f"ito_map of {model.label!r}")


def _check_diffusion(s, det, label):
    """Raise SingularDiffusionError if s, whose elimination gave det, is numerically singular."""
    try:
        bad = _kernel_dim(s, det) > 0
    except DomainError as err:
        raise DomainError(f"diffusion {label!r}: {err}") from None
    if np.any(bad):
        where = "" if s.ndim == 2 else f" on {int(bad.sum())} path(s)"
        raise SingularDiffusionError(f"diffusion {label!r} is singular{where}")


def inverse_ito_map(model: SdeModel, solution: PathEnsemble) -> PathEnsemble:
    """Recover the driving paths from a solution of the Euler recursion.

    Exact discrete inverse of :func:`ito_map` up to floating-point
    rounding: dW[k] = sigma(k, X)^(-1) (dX[k] - b(k, X) dt), accumulated
    from 0.  Raises :class:`SingularDiffusionError` (carrying the step
    index) when the diffusion is numerically singular at some step.
    """
    xv = _ensemble(solution, "solution", model).values
    dt = solution.grid.dt
    x = np.swapaxes(xv, 0, 1)
    check = ValueMemo(lambda s, det: _check_diffusion(s, det, model.diffusion.label))

    def step(k, t, prefix):
        b = model.drift.eval(k, t, xv[:, : k + 1])
        s = model.diffusion.eval(k, t, xv[:, : k + 1])
        det, dw = _eliminate(s, x[k + 1] - x[k] - b * dt)  # one elimination: the screen's det and the solve
        check(s, det)
        return prefix[:, -1] + dw

    w = _walk(np.zeros_like(x), dt, step, f"inverse_ito_map of {model.label!r}")
    return PathEnsemble(grid=solution.grid, values=w, seed=solution.seed)


def decompose(model: SdeModel, paths: PathEnsemble) -> tuple[PathEnsemble, PathEnsemble]:
    """Split paths into finite-variation and martingale components.

    finite_variation[k] = z0 + sum_{j<k} b(j, path[0..j]) * dt and
    martingale = path - finite_variation, so the two sum back to the
    path up to a single floating-point rounding per entry (no error
    accumulates).  The drift is evaluated on the *given* paths, which
    need not have been produced by :func:`ito_map`.  Both parts are stored
    whole.
    """
    xv = _ensemble(paths, "path", model).values
    dt = paths.grid.dt
    x = np.swapaxes(xv, 0, 1)
    fv = np.empty_like(x)
    fv[0] = model.z0
    _walk(fv, dt, lambda k, t, prefix: prefix[:, -1] + model.drift.eval(k, t, xv[:, : k + 1]) * dt,
          f"decompose of {model.label!r}")
    return tuple(PathEnsemble(grid=paths.grid, values=np.swapaxes(v, 0, 1), seed=paths.seed) for v in (fv, x - fv))
