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
step.  Paths live in one container, :class:`PathEnsemble`: the kernels
take an ensemble and return one, and a single path is the N = 1 ensemble.

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
from .linalg import kernel_dim

__all__ = [
    "TimeGrid",
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


def _ensemble(paths, what: str, model: SdeModel) -> PathEnsemble:
    """``paths``, provided it is a PathEnsemble of the model's dimension."""
    if not isinstance(paths, PathEnsemble):
        raise DimensionError(f"expected a PathEnsemble, got {type(paths).__name__}")
    if paths.d != model.dim:
        raise DimensionError(f"{what} dim {paths.d} does not match model dim {model.dim}")
    return paths


# ---------------------------------------------------------------------------
# the Itô map and its inverse


def ito_map(model: SdeModel, driver: PathEnsemble) -> PathEnsemble:
    """Push a driving ensemble through the Euler recursion.

    The driver is read as Brownian increments dB[k] = driver[k+1] -
    driver[k]; its starting value is ignored.
    """
    n_paths, _, d = _ensemble(driver, "driver", model).values.shape
    grid = driver.grid
    dt = grid.dt
    drv = time_major(driver.values)
    z = np.empty_like(drv)
    paths = _path_view(z)
    z[0] = model.z0
    for k in range(grid.n_steps):
        prefix = paths[:, : k + 1]
        t = k * dt
        b = _eval_drift(model.drift, k, t, prefix, n_paths, d)
        s = _eval_diffusion(model.diffusion, k, t, prefix, n_paths, d)
        z[k + 1] = z[k] + b * dt + _apply(s, drv[k + 1] - drv[k])
    return PathEnsemble(grid=grid, values=paths, seed=driver.seed)


def _check_diffusion(s, k, label):
    """Raise SingularDiffusionError (at step k) if s is numerically singular."""
    try:
        bad = kernel_dim(s) > 0
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


def inverse_ito_map(model: SdeModel, solution: PathEnsemble) -> PathEnsemble:
    """Recover the driving paths from a solution of the Euler recursion.

    Exact discrete inverse of :func:`ito_map` up to floating-point
    rounding: dW[k] = sigma(k, X)^(-1) (dX[k] - b(k, X) dt), accumulated
    from 0.  Raises :class:`SingularDiffusionError` (carrying the step
    index) when the diffusion is numerically singular at some step.
    """
    n_paths, _, d = _ensemble(solution, "solution", model).values.shape
    grid = solution.grid
    dt = grid.dt
    label = model.diffusion.label
    x = time_major(solution.values)
    paths = _path_view(x)
    w = np.zeros_like(x)
    # reads the loop's k when it runs: a failing check raises at the current step
    check = ValueMemo(lambda s: _check_diffusion(s, k, label))
    for k in range(grid.n_steps):
        prefix = paths[:, : k + 1]
        t = k * dt
        b = _eval_drift(model.drift, k, t, prefix, n_paths, d)
        s = _eval_diffusion(model.diffusion, k, t, prefix, n_paths, d)
        check(s)
        rhs = x[k + 1] - x[k] - b * dt
        w[k + 1] = w[k] + _solve(s, rhs)
    return PathEnsemble(grid=grid, values=_path_view(w), seed=solution.seed)


def decompose(model: SdeModel, paths: PathEnsemble) -> tuple[PathEnsemble, PathEnsemble]:
    """Split paths into finite-variation and martingale components.

    finite_variation[k] = z0 + sum_{j<k} b(j, path[0..j]) * dt and
    martingale = path - finite_variation, so the two sum back to the
    path up to a single floating-point rounding per entry (no error
    accumulates).  The drift is evaluated on the *given* paths, which
    need not have been produced by :func:`ito_map`.
    """
    n_paths, _, d = _ensemble(paths, "path", model).values.shape
    grid = paths.grid
    dt = grid.dt
    x = time_major(paths.values)
    xv = _path_view(x)
    fv = np.empty_like(x)
    fv[0] = model.z0
    for k in range(grid.n_steps):
        b = _eval_drift(model.drift, k, k * dt, xv[:, : k + 1], n_paths, d)
        fv[k + 1] = fv[k] + b * dt
    mart = x - fv
    return tuple(PathEnsemble(grid=grid, values=_path_view(v), seed=paths.seed) for v in (fv, mart))
