"""Paths, coefficient fields and the discrete Itô map.

Time is always the unit interval discretised into ``n_steps`` uniform
steps.  An SDE model is a starting point plus two coefficient fields
(drift and diffusion) evaluated non-anticipatively: a field only ever
sees the step index, the grid time and the path prefix up to that step.
The solver is the left-endpoint Euler recursion

    Z[k+1] = Z[k] + b(k, Z[0..k]) * dt + sigma(k, Z[0..k]) @ dB[k],

and because the recursion is algebraically triangular it has an exact
discrete inverse: given the solution, the driving increments are
recovered by solving sigma against the de-drifted increments step by
step.

Randomness discipline: every path of an ensemble draws from its own
substream derived from (seed, path index), so generating an ensemble
in parallel chunks yields bit-identical output to a serial run.

Storage convention: every ensemble a step kernel produces is stored
time-major, in a C-contiguous (n_steps+1, N, d) buffer, and
``PathEnsemble.values`` (like the legs of a coupled ensemble) is its
(N, n_steps+1, d) transposed view.  The public shape is unchanged while
each time slice, such as ``prefix[:, -1]`` inside a coefficient field,
is contiguous.  Inputs of any layout are accepted; :func:`time_major`
copies only those not already time-major.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, DomainError, SingularDiffusionError
from .linalg import DEFAULT_RANK_TOL, kernel_dim

__all__ = [
    "TimeGrid",
    "SamplePath",
    "PathEnsemble",
    "CoefficientField",
    "SdeModel",
    "sample_brownian",
    "brownian_increments",
    "ito_map",
    "inverse_ito_map",
    "decompose",
    "time_major",
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
class SamplePath:
    """One d-dimensional path sampled on a grid; values has shape (n_steps+1, d)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != self.grid.n_steps + 1:
            raise DimensionError(
                f"path values must have shape (n_steps+1, d), got {v.shape}"
            )
        object.__setattr__(self, "values", v)

    @property
    def d(self) -> int:
        return self.values.shape[1]


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
        object.__setattr__(self, "values", v)

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[2]

    def path(self, i: int) -> SamplePath:
        return SamplePath(self.grid, self.values[i])

    def __iter__(self):
        return (self.path(i) for i in range(self.n_paths))


@dataclass(frozen=True)
class CoefficientField:
    """A non-anticipative coefficient functional.

    ``fn(k, t, prefix)`` receives the step index, the grid time t = k*dt
    and the batched path prefix shaped (N, k+1, d); it must return

    * drift:      (d,) shared across paths, or (N, d) per path,
    * diffusion:  (d, d) shared across paths, or (N, d, d) per path.

    Returning the shared shape whenever the coefficient does not depend
    on the path keeps the per-step membership and singularity checks
    cheap.  The interface enforces non-anticipativity by construction:
    only the prefix is ever passed in.
    """

    kind: str  # "drift" | "diffusion"
    dim: int
    fn: Callable[[int, float, np.ndarray], np.ndarray]
    label: str = "custom"

    def __post_init__(self):
        if self.kind not in ("drift", "diffusion"):
            raise DimensionError(f"unknown coefficient kind {self.kind!r}")

    def eval(self, k: int, t: float, prefix: np.ndarray) -> np.ndarray:
        return self.fn(k, t, prefix)


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

    @property
    def dim(self) -> int:
        return self.z0.size


def constant_drift(mu, d: int, label: str | None = None) -> CoefficientField:
    mu = np.broadcast_to(np.asarray(mu, dtype=float), (d,)).copy()
    return CoefficientField(
        "drift", d, lambda k, t, prefix: mu, label=label or f"const({mu.tolist()})"
    )


def constant_diffusion(sigma, d: int, label: str | None = None) -> CoefficientField:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim == 0:
        sigma = float(sigma) * np.eye(d)
    if sigma.shape != (d, d):
        raise DimensionError(f"constant diffusion must be ({d}, {d}), got {sigma.shape}")
    return CoefficientField(
        "diffusion", d, lambda k, t, prefix: sigma, label=label or "const-matrix"
    )


# ---------------------------------------------------------------------------
# sampling


def _substream(seed: int, index: int) -> np.random.Generator:
    """Generator for one path, derived from (seed, path index)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


def _check_draw(seed, d, n_paths, streams):
    """The seed as an int, once seed and sizes are validated."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    if d < 1 or n_paths < 1 or streams < 1:
        raise DimensionError("d, n_paths and streams must all be >= 1")
    return int(seed)


def time_major(values: np.ndarray) -> np.ndarray:
    """The (n+1, N, d) time-major form of (N, n+1, d) paths; a copy only if needed."""
    return np.ascontiguousarray(np.swapaxes(values, 0, 1))


def _path_view(buf: np.ndarray) -> np.ndarray:
    """The public (N, n+1, d) view of time-major (n+1, N, d) storage."""
    return np.swapaxes(buf, 0, 1)


_BLOCK_VALUES = 1 << 15  # normals (256 kB) drawn into one block of paths before it is stored


def _draw(grid: TimeGrid, d: int, n_paths: int, seed: int, streams: int, n_workers: int, store):
    """Draw the scaled increments of every path, a block of paths at a time.

    Path i draws its (streams, n_steps, d) normals from substream (seed, i);
    ``store(start, block)`` receives those of paths start, start+1, ...
    """
    n = grid.n_steps
    root_dt = np.sqrt(grid.dt)
    per_block = max(1, _BLOCK_VALUES // (streams * n * d))

    def fill(lo: int, hi: int):
        buf = np.empty((min(per_block, hi - lo), streams, n, d))
        for start in range(lo, hi, per_block):
            block = buf[: min(per_block, hi - start)]
            for j in range(block.shape[0]):
                _substream(seed, start + j).standard_normal(out=block[j])
            block *= root_dt
            if not np.isfinite(block).all():
                raise DomainError("non-finite values in generated increments")
            store(start, block)

    if n_workers <= 1 or n_paths < 2 * n_workers:
        fill(0, n_paths)
    else:
        chunk = -(-n_paths // n_workers)
        bounds = [(lo, min(lo + chunk, n_paths)) for lo in range(0, n_paths, chunk)]
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(lambda b: fill(*b), bounds))


def brownian_increments(
    grid: TimeGrid, d: int, n_paths: int, seed: int, streams: int = 1, n_workers: int = 1
) -> np.ndarray:
    """Brownian increments shaped (streams, n_paths, n_steps, d).

    Path i draws all of its ``streams`` blocks from substream (seed, i)
    in a fixed order, so the result does not depend on ``n_workers`` or
    on how the paths are chunked.  The result is a view of time-major
    storage (streams, n_steps, n_paths, d).
    """
    seed = _check_draw(seed, d, n_paths, streams)
    out = np.empty((streams, grid.n_steps, n_paths, d))

    def store(start, block):
        out[:, :, start : start + len(block)] = block.transpose(1, 2, 0, 3)

    _draw(grid, d, n_paths, seed, streams, n_workers, store)
    return out.transpose(0, 2, 1, 3)


def sample_brownian(
    grid: TimeGrid, d: int, n_paths: int, seed: int, n_workers: int = 1
) -> PathEnsemble:
    """Standard Brownian ensemble started at 0."""
    buf = np.zeros((grid.n_steps + 1, n_paths, d))

    def store(start, block):
        np.cumsum(block[:, 0], axis=1, out=_path_view(buf[1:, start : start + len(block)]))

    _draw(grid, d, n_paths, _check_draw(seed, d, n_paths, 1), 1, n_workers, store)
    return PathEnsemble(grid=grid, values=_path_view(buf), seed=seed)


# ---------------------------------------------------------------------------
# coefficient evaluation plumbing


def _shaped(value, shapes, what, label, k) -> np.ndarray:
    """``value`` as a float array, provided its shape is one of ``shapes``."""
    arr = np.asarray(value, dtype=float)
    if arr.shape in shapes:
        return arr
    raise DimensionError(
        f"{what} {label!r} returned shape {arr.shape} at step {k}; "
        f"expected {' or '.join(map(str, shapes))}"
    )


def _eval_drift(field: CoefficientField, k, t, prefix, n_paths, d):
    return _shaped(field.eval(k, t, prefix), [(d,), (n_paths, d)], "drift", field.label, k)


def _eval_diffusion(field: CoefficientField, k, t, prefix, n_paths, d):
    shapes = [(d, d), (n_paths, d, d)]
    return _shaped(field.eval(k, t, prefix), shapes, "diffusion", field.label, k)


def _apply(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """mat @ vec per path; mat is (d, d) shared or (N, d, d), vec is (N, d)."""
    if mat.ndim == 2:
        return vec @ mat.T
    return np.einsum("nij,nj->ni", mat, vec)


def _apply_transposed(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """mat^T @ vec per path, under the same broadcasting rule as :func:`_apply`."""
    return _apply(np.swapaxes(mat, -1, -2), vec)


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

    def __call__(self, mat: np.ndarray):
        if mat.ndim != 2:
            return self.fn(mat)
        key = mat.tobytes()
        if key != self.key:
            self.value = self.fn(mat)
            self.key = key
        return self.value


def _values_and_kind(path_or_ensemble):
    if isinstance(path_or_ensemble, SamplePath):
        return path_or_ensemble.values[None], path_or_ensemble.grid, True, None
    if isinstance(path_or_ensemble, PathEnsemble):
        return (
            path_or_ensemble.values,
            path_or_ensemble.grid,
            False,
            path_or_ensemble.seed,
        )
    raise DimensionError(
        f"expected SamplePath or PathEnsemble, got {type(path_or_ensemble).__name__}"
    )


def _wrap_like(grid, values, single, seed):
    if single:
        return SamplePath(grid, values[0])
    return PathEnsemble(grid=grid, values=values, seed=seed)


# ---------------------------------------------------------------------------
# the Itô map and its inverse


def ito_map(model: SdeModel, driver):
    """Push a driving path (or ensemble) through the Euler recursion.

    The driver is read as Brownian increments dB[k] = driver[k+1] -
    driver[k]; its starting value is ignored.  Accepts a SamplePath or a
    PathEnsemble and returns the same kind.
    """
    drv, grid, single, seed = _values_and_kind(driver)
    n_paths, _, d = drv.shape
    if d != model.dim:
        raise DimensionError(f"driver dim {d} does not match model dim {model.dim}")
    dt = grid.dt
    drv = time_major(drv)
    z = np.empty_like(drv)
    paths = _path_view(z)
    z[0] = model.z0
    for k in range(grid.n_steps):
        prefix = paths[:, : k + 1]
        t = k * dt
        b = _eval_drift(model.drift, k, t, prefix, n_paths, d)
        s = _eval_diffusion(model.diffusion, k, t, prefix, n_paths, d)
        z[k + 1] = z[k] + b * dt + _apply(s, drv[k + 1] - drv[k])
    return _wrap_like(grid, paths, single, seed)


def _check_diffusion(s, k, rank_tol, label):
    """Raise SingularDiffusionError (at step k) if s is numerically singular."""
    try:
        bad = kernel_dim(s, rank_tol) > 0
    except DomainError as err:
        raise DomainError(f"diffusion {label!r}: {err}", step=k) from None
    if np.any(bad):
        where = "" if s.ndim == 2 else f" on {int(bad.sum())} path(s)"
        raise SingularDiffusionError(f"diffusion {label!r} is singular{where}", step=k)


def _solve(s, rhs):
    """Solve s @ x = rhs per path; s is (d, d) shared or (N, d, d), rhs is (N, d)."""
    if s.ndim == 2:
        return np.linalg.solve(s, rhs.T).T
    return np.linalg.solve(s, rhs[..., None])[..., 0]


def inverse_ito_map(model: SdeModel, solution, rank_tol: float = DEFAULT_RANK_TOL):
    """Recover the driving path from a solution of the Euler recursion.

    Exact discrete inverse of :func:`ito_map` up to floating-point
    rounding: dW[k] = sigma(k, X)^(-1) (dX[k] - b(k, X) dt), accumulated
    from 0.  Raises :class:`SingularDiffusionError` (carrying the step
    index) when the diffusion is numerically singular at some step.
    """
    x, grid, single, seed = _values_and_kind(solution)
    n_paths, _, d = x.shape
    if d != model.dim:
        raise DimensionError(f"solution dim {d} does not match model dim {model.dim}")
    dt = grid.dt
    label = model.diffusion.label
    x = time_major(x)
    paths = _path_view(x)
    w = np.zeros_like(x)
    # reads the loop's k when it runs: a failing check raises at the current step
    check = ValueMemo(lambda s: _check_diffusion(s, k, rank_tol, label))
    for k in range(grid.n_steps):
        prefix = paths[:, : k + 1]
        t = k * dt
        b = _eval_drift(model.drift, k, t, prefix, n_paths, d)
        s = _eval_diffusion(model.diffusion, k, t, prefix, n_paths, d)
        check(s)
        rhs = x[k + 1] - x[k] - b * dt
        w[k + 1] = w[k] + _solve(s, rhs)
    return _wrap_like(grid, _path_view(w), single, seed)


def decompose(model: SdeModel, path):
    """Split a path into finite-variation and martingale components.

    finite_variation[k] = z0 + sum_{j<k} b(j, path[0..j]) * dt and
    martingale = path - finite_variation, so the two sum back to the
    path up to a single floating-point rounding per entry (no error
    accumulates).  The drift is evaluated on the *given* path, which
    need not have been produced by :func:`ito_map`.
    """
    x, grid, single, seed = _values_and_kind(path)
    n_paths, _, d = x.shape
    if d != model.dim:
        raise DimensionError(f"path dim {d} does not match model dim {model.dim}")
    dt = grid.dt
    x = time_major(x)
    paths = _path_view(x)
    fv = np.empty_like(x)
    fv[0] = model.z0
    for k in range(grid.n_steps):
        b = _eval_drift(model.drift, k, k * dt, paths[:, : k + 1], n_paths, d)
        fv[k + 1] = fv[k] + b * dt
    mart = x - fv
    return (
        _wrap_like(grid, _path_view(fv), single, seed),
        _wrap_like(grid, _path_view(mart), single, seed),
    )
