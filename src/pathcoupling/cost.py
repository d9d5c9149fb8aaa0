"""Cost functionals on coupled ensembles and their closed-form optima.

Two families of costs are supported.  A *separable* cost charges the
finite-variation and martingale parts of a pair separately,

    h(V_x - V_y) + g(trace of the realized bracket of M_x - M_y),

and an *Lp* cost integrates ``|x_t - y_t|^p`` over time.  Costs are
priced over the pairs of a :class:`CoupledEnsemble` by :func:`estimate`;
one pair is the N = 1 ensemble.  For separable
costs against a target whose drift and diffusion ``sbar`` do not depend
on the path, the optimal value over all non-anticipating couplings
has a closed form driven by per-step singular values, together with the
rotation process that attains it; see :func:`closed_form_optimal`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .coupling import CoupledEnsemble
from .errors import ConfigError, DimensionError, DomainError
from .linalg import trace_max_rotation
from .sde import (
    CoefficientField,
    PathEnsemble,
    SdeModel,
    ValueMemo,
    _ensemble,
    _walk,
    time_blocks,
)

__all__ = ["SEPARABLE", "LP_PATH", "DETERMINISM_TOL", "CostSpec", "CostEstimate", "estimate", "closed_form_optimal"]

SEPARABLE = "SEPARABLE"
LP_PATH = "LP_PATH"

#: largest spread across probe paths of a target coefficient that counts as deterministic
DETERMINISM_TOL = 1e-8

# grid on which g is spot-checked for monotonicity at construction time
_G_PROBE = np.linspace(0.0, 16.0, 100)


@dataclass(frozen=True)
class CostSpec:
    """What to charge a coupled pair of paths.

    For ``kind=SEPARABLE``, ``h`` maps a batch of paths ``(N, n+1, d)``
    to ``(N,)`` nonnegative scores and must not write to it (it may be a
    read-only broadcast of one path); ``g`` maps nonnegative reals to
    nonnegative reals and must be nondecreasing (spot-checked on a probe
    grid at construction).  For ``kind=LP_PATH`` only ``p >= 1`` is used.
    """

    kind: str
    h: Optional[Callable] = None
    g: Optional[Callable] = None
    p: Optional[float] = None
    label: str = ""

    def __post_init__(self):
        if self.kind == SEPARABLE:
            if self.h is None or self.g is None:
                raise ConfigError("separable cost needs both h and g")
            vals = np.asarray(self.g(_G_PROBE), dtype=float)
            if vals.shape != _G_PROBE.shape:
                raise ConfigError(
                    f"g must map (N,) arrays to (N,) arrays, got shape {vals.shape}"
                )
            if np.any(np.diff(vals) < -1e-12):
                raise ConfigError("g must be nondecreasing (violated on the probe grid)")
            if np.any(vals < -1e-12):
                raise ConfigError("g must be nonnegative (violated on the probe grid)")
            if not self.label:
                object.__setattr__(self, "label", "separable")
        elif self.kind == LP_PATH:
            if self.p is None or not self.p >= 1:
                raise ConfigError(f"Lp path cost needs p >= 1, got {self.p}")
            if not self.label:
                object.__setattr__(self, "label", f"lp(p={self.p:g})")
        else:
            raise ConfigError(f"unknown cost kind {self.kind!r}")

    @classmethod
    def separable(cls, h, g, label: str = "separable") -> "CostSpec":
        return cls(kind=SEPARABLE, h=h, g=g, label=label)

    @classmethod
    def lp(cls, p) -> "CostSpec":
        return cls(kind=LP_PATH, p=float(p))


@dataclass(frozen=True)
class CostEstimate:
    """Monte Carlo estimate of an expected cost.

    ``stderr`` is the sample standard deviation over pairs divided by
    sqrt(N).  With a single pair the spread is not estimable; stderr is
    reported as 0.0 and ``degenerate`` is set.
    """

    mean: float
    stderr: float
    n_pairs: int
    spec_label: str
    degenerate: bool = False

    def as_dict(self) -> dict:
        return {
            "mean": self.mean,
            "stderr": self.stderr,
            "n_pairs": self.n_pairs,
            "cost_spec": self.spec_label,
            "degenerate": self.degenerate,
        }


def _from_values(values: np.ndarray, spec_label: str) -> CostEstimate:
    values = np.asarray(values, dtype=float)
    n = int(values.shape[0])
    if n == 0:
        raise DomainError("cannot estimate a cost from an empty ensemble")
    mean = float(values.mean())
    if n == 1:
        return CostEstimate(mean=mean, stderr=0.0, n_pairs=1, spec_label=spec_label,
                            degenerate=True)
    stderr = float(values.std(ddof=1) / np.sqrt(n))
    return CostEstimate(mean=mean, stderr=stderr, n_pairs=n, spec_label=spec_label)


# ---------------------------------------------------------------------------
# per-pair values, batched over the pairs of an ensemble


def _separable_values(pair: CoupledEnsemble, src: SdeModel, dst: SdeModel, spec: CostSpec):
    """h and g per pair from one walk over the pair's steps: each block runs both drift recursions,
    each one path wide until its drift returns per-path values, on from the last knot of the block
    before, adds its martingale increments to the bracket in two reused blocks and stores fv_x - fv_y."""
    models = (src, dst)
    legs = [_ensemble(e, "path", m).values for e, m in zip((pair.x_ensemble(), pair.y_ensemble()), models)]
    n_paths, _, d = legs[0].shape
    dt = pair.grid.dt
    diff = np.empty((pair.grid.n_steps + 1, 1, d))
    fvs, work, last, lo, bracket = None, None, [m.z0 for m in models], 0, 0
    for blk in time_blocks(*legs):
        steps = len(blk[0]) - 1
        fvs = fvs or [np.empty((steps + 1, 1, d)) for _ in models]  # reused; only the last block is shorter
        work = work or [np.empty(blk[0].shape) for _ in models]
        for i, (start, model, leg, side) in enumerate(zip(last, models, legs, ("src", "dst"))):
            def step(k, t, prefix):  # the walk ends before model and leg move on
                return prefix[:, -1] + model.drift.eval(k, t, leg[:, : k + 1]) * dt

            fv = fvs[i][: steps + 1]
            fv[0] = start  # the walk hands back this storage, or a wider copy that later blocks reuse
            fvs[i] = np.swapaxes(_walk(fv, dt, step, f"cost.estimate of {side} {model.label!r}", lo, n_paths), 0, 1)
        fx, fy = fvs
        if diff.shape[1] < max(fx.shape[1], fy.shape[1]):
            diff = np.broadcast_to(diff, (len(diff), n_paths, d)).copy()
        np.subtract(fx, fy, out=diff[lo : lo + steps + 1])
        mx, my = (w[: steps + 1] for w in work)
        np.subtract(np.subtract(blk[0], fx, out=mx), np.subtract(blk[1], fy, out=my), out=mx)
        dm = np.subtract(mx[1:], mx[:-1], out=my[:-1])
        bracket += np.einsum("kpd,kpd->p", dm, dm)
        last, lo = [fx[-1], fy[-1]], lo + steps
    del work, mx, my, dm  # h may use a few blocks of its own
    return _priced(spec, np.broadcast_to(np.swapaxes(diff, 0, 1), (n_paths, len(diff), d)), bracket)


def _priced(spec: CostSpec, fv_diff, bracket):
    """Per pair, h of the (N, n_steps+1, d) finite-variation differences plus g of the (N,) bracket."""
    h_vals = np.asarray(spec.h(fv_diff), dtype=float)
    if h_vals.shape != bracket.shape:
        raise DimensionError(f"h must map (N, n_steps+1, d) paths to (N,) scores, got {h_vals.shape}")
    return h_vals + np.asarray(spec.g(bracket), dtype=float)


def _lp_values(pair: CoupledEnsemble, p: float):
    diffs = (np.subtract(bx[:-1], by[:-1]) for bx, by in time_blocks(pair.x, pair.y))  # at left endpoints
    return sum(map(lambda v: (np.sqrt(np.einsum("kpd,kpd->kp", v, v)) ** p).sum(axis=0), diffs)) * pair.grid.dt


def estimate(
    ensemble: CoupledEnsemble,
    spec: CostSpec,
    src: Optional[SdeModel] = None,
    dst: Optional[SdeModel] = None,
) -> CostEstimate:
    """Mean and standard error of the cost over all pairs of an ensemble.

    A separable cost's bracket is the realized quadratic variation of the
    difference of the martingale parts (each path less its finite-variation part
    z0 + sum_{j<k} b(j, path[0..j]) dt under its model), with the usual O(sqrt(dt)) error; an Lp
    cost is the left-endpoint Riemann sum of ``|x_t - y_t|^p`` over [0, 1].  Beyond the pair, a separable
    cost holds a few blocks of steps and the finite-variation difference ``h`` receives read-only: one path
    broadcast while both drifts return shared values, else one leg-sized array.  Failures name the side.
    """
    if spec.kind == SEPARABLE:
        if src is None or dst is None:
            raise ConfigError("separable cost estimation needs src and dst models")
        vals = _separable_values(ensemble, src, dst, spec)
    else:
        vals = _lp_values(ensemble, spec.p)
    return _from_values(vals, spec.label)


# ---------------------------------------------------------------------------
# closed-form optimum


def _require_deterministic(vals, what: str):
    """Collapse a per-path batch to one value, insisting it is path-free (a NaN spread is not)."""
    spread = float(np.max(np.abs(vals - vals[0])))
    if not spread <= DETERMINISM_TOL:
        raise DomainError(f"{what} must not depend on the path; spread {spread:.3g} "
                          f"across probe paths exceeds {DETERMINISM_TOL:g}")
    return vals[0]


def closed_form_optimal(
    src: SdeModel,
    dst: SdeModel,
    spec: CostSpec,
    probe_ensemble: PathEnsemble,
) -> tuple[CostEstimate, CoefficientField]:
    """Optimal separable cost between the two model laws, plus its rotation.

    Requires the target drift and the target diffusion ``sbar`` itself
    to depend on time only; both are validated on the probe ensemble
    (which must be drawn from the source law) within ``DETERMINISM_TOL``,
    and a per-path value is read on the first probe path.  The value is
    the Monte Carlo mean over probes of

        h(int b dt - int b_bar dt)
        + g(int Tr(sigma sigma^T + sbar sbar^T) dt - 2 int Tr(sigma^T sbar Q*) dt)

    with ``Q*(k, t, path)`` the orthogonal maximizer of ``Tr(sigma(k, t, path)^T sbar(k, t) Q)``,
    so that the transport ``dY = sbar Q* dB`` of :func:`coupling.monge_sde` attains it.
    The returned rotation process reads both diffusions at the step and time it is given,
    on the prefix it is given, so it serves every grid.
    """
    if spec.kind != SEPARABLE:
        raise ConfigError("closed-form optimum exists only for SEPARABLE costs")
    d = probe_ensemble.d
    if d != src.dim or d != dst.dim:
        raise DimensionError(
            f"probe dim {d} does not match models ({src.dim}, {dst.dim})"
        )
    grid = probe_ensemble.grid
    n, dt = grid.n_steps, grid.dt
    x = probe_ensemble.values
    n_paths = probe_ensemble.n_paths
    trace_max = ValueMemo(trace_max_rotation)

    def sbar_of(k, t, prefix):  # the target's diffusion on a source prefix, checked path-free
        sbar = dst.diffusion.eval(k, t, prefix)
        return _require_deterministic(sbar, "dst diffusion (sbar)") if sbar.ndim == 3 else sbar

    bracket = np.zeros(n_paths)
    fv_x = np.empty((n + 1, n_paths, d))
    fv_x[0] = src.z0
    fv_y = np.empty((n + 1, 1, d))
    fv_y[0] = dst.z0

    def dst_step(k, t, fv):  # the target's fields, read on the source's paths
        prefix = x[:, : k + 1]
        sbar_of(k, t, prefix)  # a path-dependent sbar is refused here, on the dst side
        bbar = dst.drift.eval(k, t, prefix)
        if bbar.ndim == 2:
            bbar = _require_deterministic(bbar, "dst drift")
        return fv[:, -1] + bbar * dt

    def step(k, t, fv):
        prefix = x[:, : k + 1]
        sbar = sbar_of(k, t, prefix)
        b = src.drift.eval(k, t, prefix)
        sig = src.diffusion.eval(k, t, prefix)
        cross = trace_max(np.swapaxes(sig, -1, -2) @ sbar)[1]
        tr_src = np.einsum("...ij,...ij->...", sig, sig)
        bracket[:] += (tr_src + float(np.einsum("ij,ij->", sbar, sbar)) - 2.0 * cross) * dt
        return fv[:, -1] + b * dt

    fv_y = _walk(fv_y, dt, dst_step, f"closed_form_optimal of dst {dst.label!r}", n_paths=n_paths)
    fv_x = _walk(fv_x, dt, step, f"closed_form_optimal of src {src.label!r}")
    # the integrand is nonnegative analytically; clip rounding residue so
    # g (e.g. sqrt) never sees a negative bracket
    bracket = np.maximum(bracket, 0.0)
    value = _from_values(_priced(spec, fv_x - fv_y, bracket), f"closed-form({spec.label})")

    def q_fn(k, t, x_prefix):
        sig = src.diffusion.eval(k, t, x_prefix)
        return trace_max(np.swapaxes(sig, -1, -2) @ sbar_of(k, t, x_prefix))[0].copy()

    q_star = CoefficientField("rotation", d, q_fn, label=f"trace-max(src={src.label}, dst={dst.label})")
    return value, q_star

