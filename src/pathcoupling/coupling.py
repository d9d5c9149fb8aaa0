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
the invertible, adapted maps between Brownian laws; Tanaka's pair and
the +/-1 chop of :func:`chop_rotation`, whose running sum stays within
one step of a constant correlation c on every grid, are each one
:func:`rotation_monge` call), their conjugation by Itô maps, and the
direct recursion for a candidate Monge transport between two SDE laws
and its kernel residual.

rho and Q are coefficient fields (:class:`~pathcoupling.sde.CoefficientField`)
of kind ``"correlation"``, which sees both coupled prefixes, and
``"rotation"``.  A kernel refuses a value outside the correlation class
or the orthogonal group at its step, naming the field's kind and label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    _check_draw,
    _draw,
    _ito,
    _walk,
    inverse_ito_map,
    sample_brownian,
)

__all__ = [
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
    "chop_rotation",
]

INFEASIBLE = "INFEASIBLE"
UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class CoupledEnsemble:
    """Paired paths (x, y) on a common grid with construction provenance."""

    grid: TimeGrid
    x: np.ndarray
    y: np.ndarray
    seed: int
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        x, y = (PathEnsemble(grid=self.grid, values=leg, seed=self.seed).values for leg in (self.x, self.y))
        if x.shape != y.shape:
            raise DimensionError(f"coupled legs must have one shape, got {x.shape} / {y.shape}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

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


def _orthogonal(q):
    """Refuse a rotation value that is not orthogonal; kernels memoise it as their admission check."""
    worst = float(np.max(orthogonality_defect(q)))
    if not worst <= MEMBERSHIP_TOL:  # a NaN defect is not orthogonal either
        raise DomainError(f"not orthogonal (defect {worst:.3e})")


def _admissible(c):
    """Refuse a correlation value outside the correlation class, as :func:`_orthogonal` does."""
    worst = float(np.min(correlation_margin(c)))
    if worst < -MEMBERSHIP_TOL:
        raise DomainError(f"leaves the admissible class (margin {worst:.3e})")


def _coupled(grid, x, y, seed, constructor, marginals, **detail):
    """A CoupledEnsemble whose provenance names its construction."""
    prov = {"constructor": constructor, **detail, "marginals": list(marginals),
            "n_pairs": int(x.shape[0]), "n_steps": grid.n_steps, "seed": seed}
    return CoupledEnsemble(grid=grid, x=x, y=y, seed=seed, provenance=prov)


# ---------------------------------------------------------------------------
# couplings of Brownian drivers


def couple_brownians(
    rho: CoefficientField,
    grid: TimeGrid,
    n_pairs: int,
    seed: int,
    n_workers: int = 1,
) -> CoupledEnsemble:
    """Joint Brownian pair with prescribed instantaneous correlation.

    Draws pair i's dX, then its dW, from path i's generator and sets

        dY[k] = rho[k]^T dX[k] + sqrt(I - rho[k]^T rho[k]) dW[k].

    Both marginals are standard Brownian by construction.  The value of
    rho is checked against the correlation class at every step; a
    violation raises :class:`DomainError` carrying the step index.
    """
    d = rho.dim
    seed = _check_draw(seed, d, n_pairs)
    x = np.zeros((grid.n_steps + 1, n_pairs, d))
    y = np.zeros_like(x)

    def store(start, block):  # knot k+1 of each leg holds its increment k until step k reads it
        x[1:, start : start + len(block)] = np.swapaxes(block[:, 0], 0, 1)
        y[1:, start : start + len(block)] = np.swapaxes(block[:, 1], 0, 1)

    _draw(grid, d, n_pairs, seed, 2, n_workers, store)
    xv = np.swapaxes(x, 0, 1)
    # sqrt(I - c^T c), the top-up that restores the Brownian marginal
    root_of = ValueMemo(lambda c: psd_sqrt(np.eye(d) - np.swapaxes(c, -1, -2) @ c, clamp_tol=1e-6))
    admit = ValueMemo(_admissible)

    def step(k, t, prefix):
        c = rho.eval(k, t, xv[:, : k + 1], prefix, admit=admit)
        dy = _apply(np.swapaxes(c, -1, -2), x[k + 1]) + _apply(root_of(c), y[k + 1])
        if k:  # x[1] is dB[0] itself: adding x[0] = +0.0 would turn a -0.0 draw into +0.0
            x[k + 1] += x[k]
        return prefix[:, -1] + dy

    yv = _walk(y, grid.dt, step, f"couple_brownians of {rho.label!r}")
    return _coupled(grid, xv, yv, seed, "couple_brownians", [f"wiener(d={d})"] * 2, correlation=rho.label)


def couple_sdes(
    src: SdeModel,
    dst: SdeModel,
    rho: CoefficientField,
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
    product.  It holds nothing beside the pair: the Itô maps write over
    :func:`couple_brownians`'s legs.
    """
    if src.dim != dst.dim or rho.dim != src.dim:
        raise DimensionError("source, target and correlation dimensions must agree")
    pair = couple_brownians(rho, grid, n_pairs, seed, n_workers=n_workers)
    x = _ito(src, pair.x_ensemble(), over=True)
    y = _ito(dst, pair.y_ensemble(), over=True)
    return _coupled(grid, x.values, y.values, pair.seed, "couple_sdes", [src.label, dst.label], correlation=rho.label)


# ---------------------------------------------------------------------------
# Monge transports


def rotation_monge(q: CoefficientField, driver: PathEnsemble) -> CoupledEnsemble:
    """Transport a Brownian driver by a progressive rotation integral.

    dY[k] = Q[k] dX[k] with Q orthogonal at every step (checked; a
    violation raises :class:`DomainError` with the step index).  The
    output path starts at 0 and has the Wiener law whenever the driver
    does; the pair (X, Y) is then a Monge coupling of Wiener measure
    with itself.
    """
    if q.dim != driver.d:
        raise DimensionError(f"rotation dim {q.dim} does not match driver dim {driver.d}")
    xv, d = driver.values, driver.d
    x = np.swapaxes(xv, 0, 1)
    admit = ValueMemo(_orthogonal)

    def step(k, t, prefix):
        mat = q.eval(k, t, xv[:, : k + 1], admit=admit)
        return prefix[:, -1] + _apply(mat, x[k + 1] - x[k])

    y = _walk(np.zeros_like(x), driver.grid.dt, step, f"rotation_monge of {q.label!r}")
    return _coupled(driver.grid, xv, y, driver.seed, "rotation_monge", [f"wiener(d={d})"] * 2, rotation=q.label)


def composed_monge(
    src: SdeModel,
    dst: SdeModel,
    q: CoefficientField,
    grid: TimeGrid,
    n_pairs: int,
    seed: int,
    n_workers: int = 1,
) -> CoupledEnsemble:
    """Monge coupling of two strong-solution laws by conjugation.

    Chains X = ito_map(src, B), W = inverse_ito_map(src, X) (= B up to
    rounding), U = rotation integral of W, Y = ito_map(dst, U).  The
    rotation process is evaluated on the recovered driver prefix.  With
    src = dst and Q = I this is the identity coupling.  Beside the pair
    it holds W alone: X is written over B and Y over U.
    """
    if src.dim != dst.dim or q.dim != src.dim:
        raise DimensionError("source, target and rotation dimensions must agree")
    bm = sample_brownian(grid, src.dim, n_pairs, seed, n_workers=n_workers)
    x = _ito(src, bm, over=True)
    rotated = rotation_monge(q, inverse_ito_map(src, x))
    y = _ito(dst, rotated.y_ensemble(), over=True)
    marginals = [src.label, dst.label]
    return _coupled(grid, x.values, y.values, seed, "composed_monge", marginals, rotation=q.label)


def monge_sde(
    dst_drift: CoefficientField,
    dst_diffusion: CoefficientField,
    q: CoefficientField,
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
    rank at every probe.  X is written over its driver: nothing beside the pair.
    """
    d = src.dim
    z0_dst = np.broadcast_to(np.asarray(0.0 if z0_dst is None else z0_dst, dtype=float), (d,))
    dst = SdeModel(z0_dst, dst_drift, dst_diffusion, label=f"target({dst_drift.label}, {dst_diffusion.label})")
    if q.dim != d:
        raise DimensionError(f"rotation dim {q.dim} does not match src dim {d}")
    xv = _ito(src, sample_brownian(grid, d, n_pairs, seed, n_workers=n_workers), over=True).values
    x = np.swapaxes(xv, 0, 1)
    dt = grid.dt
    ty = np.empty_like(x)
    ty[0] = dst.z0
    resid = np.zeros(grid.n_steps)
    admit = ValueMemo(_orthogonal)
    pinv_of = ValueMemo(pinv_and_null)

    def step(k, t, tp):
        xp = xv[:, : k + 1]
        b = src.drift.eval(k, t, xp)
        sig = src.diffusion.eval(k, t, xp)
        bbar = dst.drift.eval(k, t, tp)
        sbar = dst.diffusion.eval(k, t, tp)
        qmat = q.eval(k, t, xp, admit=admit)
        pinv, null_proj = pinv_of(sig)
        u = _apply(pinv, x[k + 1] - x[k] - b * dt)
        resid[k] = float(np.abs(np.matmul(np.matmul(sbar, qmat), null_proj)).max())
        return tp[:, -1] + (bbar * dt + _apply(sbar, _apply(qmat, u)))

    tv, worst = _walk(ty, dt, step, f"monge_sde of {dst.label!r}"), int(resid.argmax())
    return _coupled(grid, xv, tv, seed, "monge_sde", [src.label, dst.label],
                    rotation=q.label, kernel_residual=float(resid[worst]), kernel_residual_step=worst,
                    kernel_condition_violated=bool(resid[worst] > 1e-8))


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

    Simulates Y as standard 1-d Brownian motion and sets X to the rotation
    integral dX[k] = sign(Y[k]) dY[k] of :func:`rotation_monge`, sign(0) = -1.
    Then X is Brownian too and the instantaneous correlation is +/-1 at
    every step, yet Y is not a function of X: Y solves dY = sign(Y) dX, which
    has no strong solution, so no amount of looking at X pins down the sign of Y.
    """
    sign = CoefficientField("rotation", 1, lambda k, t, yp: np.where(yp[:, -1:] > 0.0, 1.0, -1.0), label="sign(y)")
    pair = rotation_monge(sign, sample_brownian(grid, 1, n_pairs, seed, n_workers=n_workers))
    return _coupled(grid, pair.y, pair.x, seed, "tanaka_coupling", pair.provenance["marginals"], correlation=sign.label)


def chop_rotation(c: float) -> CoefficientField:
    """The +/-1 rotation whose running mean tracks the correlation c at every step.

    Q_k = 2 (floor((k + 1) h + 1/2) - floor(k h + 1/2)) - 1 with h = (1 + c) / 2, so the
    first k + 1 steps hold (k + 1) h rounded half up steps of +1 and |sum_{j<=k} (c - Q_j)| <= 1
    at every k, up to the rounding of h: each Q_k is the sign of c plus the error carried so
    far, +1 at a tie.  Q_k is a function of k alone, so one chop serves every grid.
    """
    if not -1.0 <= c <= 1.0:
        raise DomainError(f"target correlation must lie in [-1, 1], got {c}")
    h = (1.0 + c) / 2.0
    plus, minus = np.ones((1, 1)), -np.ones((1, 1))

    def fn(k, t, xp):
        return plus if math.floor((k + 1) * h + 0.5) > math.floor(k * h + 0.5) else minus

    return CoefficientField("rotation", 1, fn, label=f"chop(c={c})")
