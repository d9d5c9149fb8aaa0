"""Constructors for couplings of Brownian drivers and SDE laws.

Every coupling of two Brownian motions that respects the flow of
information in both directions is, step by step, of one form: the
second driver's increment is a correlation matrix (transposed) applied
to the first driver's increment plus an independent top-up that restores
the Brownian marginal,

    dBt[k] = rho[k]^T dB[k] + sqrt(I - rho[k]^T rho[k]) dW[k],

with rho constrained to the correlation class at every step.  The
constructors here build exactly that, plus the transport variants:
rotation integrals of a driver (which preserve the Wiener law and are
the invertible, adapted maps between Brownian laws), their conjugation
by Itô maps, and the direct recursion for a candidate Monge transport
between two SDE laws including its kernel-condition residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionError, DomainError
from .linalg import (
    MEMBERSHIP_TOL,
    correlation_margin,
    kernel_dim,
    orthogonality_defect,
    pinv_and_null,
    psd_sqrt,
)
from .sde import (
    CoefficientField,
    PathEnsemble,
    SdeModel,
    TimeGrid,
    ValueMemo,
    _apply,
    _apply_transposed,
    _eval_diffusion,
    _eval_drift,
    _path_view,
    _shaped,
    brownian_increments,
    ito_map,
    inverse_ito_map,
    sample_brownian,
    time_major,
)

__all__ = [
    "CorrelationProcess",
    "RotationProcess",
    "CoupledEnsemble",
    "couple_brownians",
    "couple_sdes",
    "rotation_monge",
    "composed_monge",
    "monge_sde",
    "feasibility_check",
    "FeasibilityReport",
    "INFEASIBLE",
    "UNDECIDED",
    "tanaka_coupling",
    "rotation_chop",
    "chop_rotation",
]

INFEASIBLE = "INFEASIBLE"
UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class CorrelationProcess:
    """Progressive correlation-class-valued process.

    ``fn(k, t, x_prefix, y_prefix)`` sees the step index, the grid time
    and the prefixes of both coupled paths, shaped (N, k+1, d).  It
    returns a (d, d) matrix shared by all paths or an (N, d, d) batch.
    Values are checked against the correlation class at every step by
    the consumers.
    """

    dim: int
    fn: Callable[[int, float, np.ndarray, np.ndarray], np.ndarray]
    label: str = "custom"

    def eval(self, k, t, x_prefix, y_prefix):
        return self.fn(k, t, x_prefix, y_prefix)

    @classmethod
    def constant(cls, c, d: int | None = None) -> "CorrelationProcess":
        c = np.asarray(c, dtype=float)
        if c.ndim == 0:
            if d is None:
                raise DimensionError("scalar correlation needs an explicit dimension")
            c = float(c) * np.eye(d)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise DimensionError(f"correlation matrix must be square, got {c.shape}")
        if d is not None and c.shape != (d, d):
            raise DimensionError(f"correlation matrix must be ({d}, {d}), got {c.shape}")
        mat = c.copy()
        return cls(mat.shape[0], lambda k, t, xp, yp: mat, label=f"const({mat.tolist()})")


@dataclass(frozen=True)
class RotationProcess:
    """Progressive orthogonal-matrix-valued process on the first path.

    Same batching convention as :class:`CorrelationProcess`, but the
    functional only sees the prefix of the path it transports.
    """

    dim: int
    fn: Callable[[int, float, np.ndarray], np.ndarray]
    label: str = "custom"

    def eval(self, k, t, x_prefix):
        return self.fn(k, t, x_prefix)

    @classmethod
    def constant(cls, q) -> "RotationProcess":
        q = np.asarray(q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise DimensionError(f"rotation matrix must be square, got {q.shape}")
        mat = q.copy()
        return cls(mat.shape[0], lambda k, t, xp: mat, label=f"const({mat.tolist()})")

    @classmethod
    def identity(cls, d: int) -> "RotationProcess":
        eye = np.eye(d)
        return cls(d, lambda k, t, xp: eye, label="identity")


@dataclass(frozen=True)
class CoupledEnsemble:
    """Paired paths (x, y) on a common grid with construction provenance."""

    grid: TimeGrid
    x: np.ndarray
    y: np.ndarray
    seed: int
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.shape != y.shape or x.ndim != 3 or x.shape[1] != self.grid.n_steps + 1:
            raise DimensionError(
                f"coupled values must both be (N, n_steps+1, d), got {x.shape} / {y.shape}"
            )

    @property
    def n_pairs(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[2]

    def x_ensemble(self) -> PathEnsemble:
        return PathEnsemble(grid=self.grid, values=self.x, seed=self.seed)

    def y_ensemble(self) -> PathEnsemble:
        return PathEnsemble(grid=self.grid, values=self.y, seed=self.seed)


def _eval_rotation(q, k, t, xp, n_paths, defect_of):
    """Q[k], checked orthogonal; ``defect_of`` is a ValueMemo of the defect."""
    d = q.dim
    mat = _shaped(q.eval(k, t, xp), [(d, d), (n_paths, d, d)], "rotation", q.label, k)
    worst = float(np.max(defect_of(mat)))
    if worst > MEMBERSHIP_TOL:
        raise DomainError(
            f"rotation {q.label!r} is not orthogonal (defect {worst:.3e})", step=k
        )
    return mat


def _coupled(grid, x, y, seed, constructor, marginals, **detail):
    """A CoupledEnsemble whose provenance names its construction."""
    prov = {"constructor": constructor, **detail, "marginals": list(marginals),
            "n_pairs": int(x.shape[0]), "n_steps": grid.n_steps, "seed": seed}
    return CoupledEnsemble(grid=grid, x=x, y=y, seed=seed, provenance=prov)


# ---------------------------------------------------------------------------
# couplings of Brownian drivers


def couple_brownians(
    rho: CorrelationProcess,
    grid: TimeGrid,
    n_pairs: int,
    seed: int,
    n_workers: int = 1,
) -> CoupledEnsemble:
    """Joint Brownian pair with prescribed instantaneous correlation.

    Draws two independent increment streams per pair and sets

        dY[k] = rho[k]^T dX[k] + sqrt(I - rho[k]^T rho[k]) dW[k].

    Both marginals are standard Brownian by construction.  The value of
    rho is checked against the correlation class at every step; a
    violation raises :class:`DomainError` carrying the step index.
    """
    d = rho.dim
    inc = brownian_increments(grid, d, n_pairs, seed, streams=2, n_workers=n_workers)
    db, dw = time_major(inc[0]), time_major(inc[1])
    n = grid.n_steps
    dt = grid.dt
    x = np.zeros((n + 1, n_pairs, d))
    y = np.zeros((n + 1, n_pairs, d))
    xv, yv = _path_view(x), _path_view(y)
    margin_of = ValueMemo(correlation_margin)
    # sqrt(I - c^T c), the top-up that restores the Brownian marginal
    root_of = ValueMemo(lambda c: psd_sqrt(np.eye(d) - np.swapaxes(c, -1, -2) @ c, clamp_tol=1e-6))
    shapes = [(d, d), (n_pairs, d, d)]
    for k in range(n):
        c = rho.eval(k, k * dt, xv[:, : k + 1], yv[:, : k + 1])
        c = _shaped(c, shapes, "correlation", rho.label, k)
        worst = float(np.min(margin_of(c)))
        if worst < -MEMBERSHIP_TOL:
            raise DomainError(
                f"correlation {rho.label!r} leaves the admissible class "
                f"(margin {worst:.3e})",
                step=k,
            )
        dy = _apply_transposed(c, db[k]) + _apply(root_of(c), dw[k])
        x[k + 1] = x[k] + db[k]
        y[k + 1] = y[k] + dy
    wiener = [f"wiener(d={d})"] * 2
    return _coupled(grid, xv, yv, seed, "couple_brownians", wiener, correlation=rho.label)


def couple_sdes(
    src: SdeModel,
    dst: SdeModel,
    rho: CorrelationProcess,
    grid: TimeGrid,
    n_pairs: int,
    seed: int,
    n_workers: int = 1,
) -> CoupledEnsemble:
    """Couple two SDE laws by pushing a correlated Brownian pair through
    their Itô maps.

    This is the generic (not necessarily Monge) coupling constructor:
    any progressive correlation process yields an information-respecting
    coupling of the two laws, with rho = I giving the synchronous
    coupling, rho = -I the antithetic one and rho = 0 the independent
    product.
    """
    if src.dim != dst.dim or rho.dim != src.dim:
        raise DimensionError("source, target and correlation dimensions must agree")
    pair = couple_brownians(rho, grid, n_pairs, seed, n_workers=n_workers)
    x = ito_map(src, pair.x_ensemble())
    y = ito_map(dst, pair.y_ensemble())
    marginals = [src.label, dst.label]
    return _coupled(grid, x.values, y.values, seed, "couple_sdes", marginals,
                    correlation=rho.label)


# ---------------------------------------------------------------------------
# Monge transports


def rotation_monge(q: RotationProcess, driver: PathEnsemble) -> CoupledEnsemble:
    """Transport a Brownian driver by a progressive rotation integral.

    dY[k] = Q[k] dX[k] with Q orthogonal at every step (checked; a
    violation raises :class:`DomainError` with the step index).  The
    output path starts at 0 and has the Wiener law whenever the driver
    does; the pair (X, Y) is then a Monge coupling of Wiener measure
    with itself.
    """
    if q.dim != driver.d:
        raise DimensionError(f"rotation dim {q.dim} does not match driver dim {driver.d}")
    n_pairs, _, d = driver.values.shape
    grid = driver.grid
    dt = grid.dt
    x = time_major(driver.values)
    xv = _path_view(x)
    y = np.zeros_like(x)
    defect_of = ValueMemo(orthogonality_defect)
    for k in range(grid.n_steps):
        mat = _eval_rotation(q, k, k * dt, xv[:, : k + 1], n_pairs, defect_of)
        y[k + 1] = y[k] + _apply(mat, x[k + 1] - x[k])
    y, wiener = _path_view(y), [f"wiener(d={d})"] * 2
    return _coupled(grid, driver.values, y, driver.seed, "rotation_monge", wiener, rotation=q.label)


def composed_monge(
    src: SdeModel,
    dst: SdeModel,
    q: RotationProcess,
    grid: TimeGrid,
    n_pairs: int,
    seed: int,
    n_workers: int = 1,
) -> CoupledEnsemble:
    """Monge coupling of two strong-solution laws by conjugation.

    Chains X = ito_map(src, B), W = inverse_ito_map(src, X) (= B up to
    rounding), U = rotation integral of W, Y = ito_map(dst, U).  The
    rotation process is evaluated on the recovered driver prefix.  With
    src = dst and Q = I this is the identity coupling.
    """
    if src.dim != dst.dim or q.dim != src.dim:
        raise DimensionError("source, target and rotation dimensions must agree")
    bm = sample_brownian(grid, src.dim, n_pairs, seed, n_workers=n_workers)
    x = ito_map(src, bm)
    rotated = rotation_monge(q, inverse_ito_map(src, x))
    y = ito_map(dst, rotated.y_ensemble())
    marginals = [src.label, dst.label]
    return _coupled(grid, x.values, y.values, seed, "composed_monge", marginals, rotation=q.label)


def monge_sde(
    dst_drift: CoefficientField,
    dst_diffusion: CoefficientField,
    q: RotationProcess,
    src: SdeModel,
    grid: TimeGrid,
    n_pairs: int,
    seed: int,
    z0_dst=None,
    n_workers: int = 1,
) -> CoupledEnsemble:
    """Direct recursion for a candidate Monge transport of an SDE law.

    Simulates X from ``src`` and runs

        T[k+1] = T[k] + bbar(k, T) dt
                      + sbar(k, T) Q[k] pinv(sigma(k, X)) dM[k],

    where dM[k] = dX[k] - b(k, X) dt is the martingale increment of X
    and Q is evaluated on the X prefix.  The transport actually hits the
    target law only if the kernel condition sbar Q = sbar Q pinv(sigma)
    sigma holds; its residual max_k max_paths |sbar Q (I - P)|, with P
    the projection onto the row space of sigma, is evaluated at every
    step and recorded in ``provenance["kernel_residual"]`` (reported,
    never raised).  The residual is exactly 0 whenever sigma has full
    rank at every probe.
    """
    d = src.dim
    if dst_drift.dim != d or dst_diffusion.dim != d or q.dim != d:
        raise DimensionError("target coefficient and rotation dimensions must match src")
    if z0_dst is None:
        z0_dst = np.zeros(d)
    z0_dst = np.broadcast_to(np.asarray(z0_dst, dtype=float), (d,))
    bm = sample_brownian(grid, d, n_pairs, seed, n_workers=n_workers)
    xv = ito_map(src, bm).values
    x = time_major(xv)
    n = grid.n_steps
    dt = grid.dt
    ty = np.empty_like(x)
    tv = _path_view(ty)
    ty[0] = z0_dst
    resid = np.zeros(n)
    defect_of = ValueMemo(orthogonality_defect)
    pinv_of = ValueMemo(pinv_and_null)
    for k in range(n):
        t = k * dt
        xp = xv[:, : k + 1]
        tp = tv[:, : k + 1]
        b = _eval_drift(src.drift, k, t, xp, n_pairs, d)
        sig = _eval_diffusion(src.diffusion, k, t, xp, n_pairs, d)
        bbar = _eval_drift(dst_drift, k, t, tp, n_pairs, d)
        sbar = _eval_diffusion(dst_diffusion, k, t, tp, n_pairs, d)
        qmat = _eval_rotation(q, k, t, xp, n_pairs, defect_of)
        pinv, null_proj = pinv_of(sig)
        dm = x[k + 1] - x[k] - b * dt
        u = _apply(pinv, dm)
        dy = bbar * dt + _apply(sbar, _apply(qmat, u))
        ty[k + 1] = ty[k] + dy
        leak = np.matmul(np.matmul(sbar, qmat), null_proj)
        resid[k] = float(np.abs(leak).max())
    return _coupled(
        grid, xv, tv, seed, "monge_sde",
        [src.label, f"target({dst_drift.label}, {dst_diffusion.label})"],
        rotation=q.label,
        kernel_residual=float(resid.max()),
        kernel_residual_step=int(resid.argmax()),
        kernel_condition_violated=bool(resid.max() > 1e-8),
    )


# ---------------------------------------------------------------------------
# feasibility screening


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the kernel-dimension screen.

    ``INFEASIBLE`` means no adapted Monge transport in either direction
    can satisfy the kernel condition: even the largest kernel available
    on the target side cannot absorb the smallest kernel forced on the
    source side.  The screen is sufficient only, so the complementary
    verdict is ``UNDECIDED`` - never "feasible".
    """

    verdict: str
    src_kernel_min: int
    dst_kernel_max: int


def feasibility_check(sigma_samples, sigma_bar_samples) -> FeasibilityReport:
    """Screen two diffusion coefficient sample sets for Monge transport.

    ``sigma_samples`` / ``sigma_bar_samples`` are iterables of matrices
    probing the source / target diffusion over times and paths.
    """
    src = [kernel_dim(m) for m in sigma_samples]
    dst = [kernel_dim(m) for m in sigma_bar_samples]
    if not src or not dst:
        raise DimensionError("need at least one probe matrix on each side")
    lo, hi = min(src), max(dst)
    verdict = INFEASIBLE if hi < lo else UNDECIDED
    return FeasibilityReport(verdict=verdict, src_kernel_min=lo, dst_kernel_max=hi)


# ---------------------------------------------------------------------------
# named demonstration couplings


def tanaka_coupling(
    grid: TimeGrid, n_pairs: int, seed: int, n_workers: int = 1
) -> CoupledEnsemble:
    """The classic non-transport coupling with unit-modulus correlation.

    Simulates Y as standard 1-d Brownian motion and sets
    dX[k] = sign(Y[k]) dY[k] with sign(0) = -1.  Then X is Brownian too
    and the instantaneous correlation is +/-1 at every step, yet Y is
    not a function of X: Y solves dY = sign(Y) dX, which has no strong
    solution, so no amount of looking at X pins down the sign of Y.
    """
    y_ens = sample_brownian(grid, 1, n_pairs, seed, n_workers=n_workers)
    y = y_ens.values
    sgn = np.where(y[:, :-1] > 0.0, 1.0, -1.0)
    dx = sgn * np.diff(y, axis=1)
    x = np.zeros_like(y)
    np.cumsum(dx, axis=1, out=x[:, 1:])
    wiener = ["wiener(d=1)"] * 2
    return _coupled(grid, x, y, seed, "tanaka_coupling", wiener, correlation="sign(y)")


def chop_rotation(c: float, n_steps: int, block: int):
    """Deterministic +/-1 schedule matching a target mean correlation.

    Within each block of ``block`` steps the first m are +1 and the rest
    -1, with m = round(block * (1 + c) / 2).  Returns the rotation
    process, the achieved mean correlation 2 m / block - 1 and a flag
    for whether the duty cycle had to be quantised.
    """
    if not -1.0 <= c <= 1.0:
        raise DomainError(f"target correlation must lie in [-1, 1], got {c}")
    if block < 1 or n_steps % block != 0:
        raise DimensionError(f"block ({block}) must divide n_steps ({n_steps})")
    exact = block * (1.0 + c) / 2.0
    m_plus = int(round(exact))
    quantized = abs(m_plus - exact) > 1e-12
    achieved = 2.0 * m_plus / block - 1.0
    pattern = np.where(np.arange(block) < m_plus, 1.0, -1.0)
    schedule = np.tile(pattern, n_steps // block)

    def fn(k, t, xp):
        return schedule[k].reshape(1, 1)

    label = f"chop(c={c}, block={block})"
    return RotationProcess(1, fn, label=label), achieved, quantized


def rotation_chop(
    c: float,
    grid: TimeGrid,
    n_pairs: int,
    seed: int,
    block: int,
    n_workers: int = 1,
) -> CoupledEnsemble:
    """1-d Monge coupling whose fast +/-1 chopping mimics correlation c.

    The signs are orthogonal (O(1) = {-1, +1}), so each refinement is a
    genuine transport; as the blocks shrink relative to the horizon the
    pair law approaches the constant-correlation coupling with parameter
    c.  The achieved duty cycle is recorded in the provenance, including
    any quantisation of c that the block size forces.
    """
    q, achieved, quantized = chop_rotation(c, grid.n_steps, block)
    driver = sample_brownian(grid, 1, n_pairs, seed, n_workers=n_workers)
    out = rotation_monge(q, driver)
    prov = dict(out.provenance)
    prov.update(
        {
            "constructor": "rotation_chop",
            "requested_c": float(c),
            "achieved_c": float(achieved),
            "block": int(block),
            "duty_cycle_quantized": quantized,
        }
    )
    return CoupledEnsemble(
        grid=out.grid, x=out.x, y=out.y, seed=out.seed, provenance=prov
    )
