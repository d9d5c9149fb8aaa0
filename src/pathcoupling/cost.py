"""Cost functionals on coupled ensembles and their closed-form optima.

Two families of costs are supported.  A *separable* cost charges the
finite-variation and martingale parts of a pair separately,

    h(V_x - V_y) + g(trace of the realized bracket of M_x - M_y),

and an *Lp* cost integrates ``|x_t - y_t|^p`` over time.  Costs are
priced over the pairs of a :class:`CoupledEnsemble` by :func:`estimate`;
one pair is the N = 1 ensemble.  For separable
costs against a target with deterministic drift and deterministic
``sigma sigma^T``, the optimal value over all non-anticipating couplings
has a closed form driven by per-step singular values, together with the
rotation process that attains it; see :func:`closed_form_optimal`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .coupling import CoupledEnsemble, RotationProcess
from .errors import ConfigError, DimensionError, DomainError
from .linalg import psd_sqrt, trace_max_rotation
from .sde import (
    PathEnsemble,
    SdeModel,
    ValueMemo,
    _eval_diffusion,
    _eval_drift,
    _path_view,
    decompose,
    time_major,
)

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
    to ``(N,)`` nonnegative scores and ``g`` maps nonnegative reals to
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


_CHUNK = 256  # pairs per block of the bracket reduction


def _bracket(mx, my):
    """Realized quadratic variation of mx - my per pair, over C-ordered blocks of pairs
    (so each pair sums in one order whatever the layout, and no full temporary is held)."""
    out = np.empty(mx.shape[0])
    for lo in range(0, mx.shape[0], _CHUNK):
        dm = np.diff(np.subtract(mx[lo : lo + _CHUNK], my[lo : lo + _CHUNK], order="C"), axis=1)
        out[lo : lo + _CHUNK] = np.einsum("pkd,pkd->p", dm, dm)
    return out


def _separable_values(pair: CoupledEnsemble, src: SdeModel, dst: SdeModel, spec: CostSpec):
    fv_x, m_x = decompose(src, pair.x_ensemble())
    fv_y, m_y = decompose(dst, pair.y_ensemble())
    bracket = _bracket(m_x.values, m_y.values)
    del m_x, m_y
    h_vals = np.asarray(spec.h(fv_x.values - fv_y.values), dtype=float)
    if h_vals.shape != (pair.n_pairs,):
        raise DimensionError(
            f"h must map (N, n_steps+1, d) paths to (N,) scores, got {h_vals.shape}"
        )
    return h_vals + np.asarray(spec.g(bracket), dtype=float)


def _lp_values(pair: CoupledEnsemble, p: float):
    diff = pair.x[:, :-1] - pair.y[:, :-1]
    norms = np.sqrt(np.einsum("pkd,pkd->pk", diff, diff))
    return norms**p @ np.full(norms.shape[1], pair.grid.dt)


def estimate(
    ensemble: CoupledEnsemble,
    spec: CostSpec,
    src: Optional[SdeModel] = None,
    dst: Optional[SdeModel] = None,
) -> CostEstimate:
    """Mean and standard error of the cost over all pairs of an ensemble.

    A separable cost's bracket is the realized quadratic variation of the
    difference of the martingale parts (:func:`sde.decompose` under each
    model), with the usual O(sqrt(dt)) error; an Lp cost is the
    left-endpoint Riemann sum of ``|x_t - y_t|^p`` over [0, 1].
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


def _require_deterministic(vals, what: str, k: int):
    """Collapse a per-path batch to one value, insisting it is path-free."""
    ref = vals[0]
    spread = float(np.max(np.abs(vals - ref))) if vals.shape[0] > 1 else 0.0
    if spread > DETERMINISM_TOL:
        raise DomainError(
            f"{what} must not depend on the path; spread {spread:.3g} "
            f"across probe paths exceeds {DETERMINISM_TOL:g}",
            step=k,
        )
    return ref


def closed_form_optimal(
    src: SdeModel,
    dst: SdeModel,
    spec: CostSpec,
    probe_ensemble: PathEnsemble,
) -> tuple[CostEstimate, RotationProcess]:
    """Optimal separable cost between the two model laws, plus its rotation.

    Requires the target drift to depend on time only and the target
    ``sigma sigma^T`` to be deterministic; both are validated on the
    probe ensemble (which must be drawn from the source law) within
    ``DETERMINISM_TOL``.  The value is the Monte Carlo mean over probes of

        h(int b dt - int b_bar dt)
        + g(int Tr(sigma sigma^T + sbar sbar^T) dt - 2 int Tr(sigma xi Q*) dt)

    with ``xi(k) = psd_sqrt(sbar sbar^T(k))`` and ``Q*(k, path)`` the
    orthogonal maximizer of ``Tr(sigma(k, path) xi(k) Q)``.  The returned
    rotation process recomputes ``Q*`` from any path prefix but is tied
    to the probe grid (same number of steps).
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
    x = _path_view(time_major(probe_ensemble.values))
    n_paths = probe_ensemble.n_paths
    xi_of = ValueMemo(psd_sqrt)
    cross_of = ValueMemo(lambda a: trace_max_rotation(a)[1])

    xi = np.empty((n, d, d))
    bracket = np.zeros(n_paths)
    fv_x = np.empty((n_paths, n + 1, d))
    fv_x[:, 0] = src.z0
    fv_y = np.empty((n + 1, d))
    fv_y[0] = dst.z0

    for k in range(n):
        t = k * dt
        prefix = x[:, : k + 1]
        sbar = _eval_diffusion(dst.diffusion, k, t, prefix, n_paths, d)
        if sbar.ndim == 3:
            sbar = _require_deterministic(sbar, "dst diffusion (sigma sigma^T)", k)
        bbar = _eval_drift(dst.drift, k, t, prefix, n_paths, d)
        if bbar.ndim == 2:
            bbar = _require_deterministic(bbar, "dst drift", k)
        xi[k] = xi_of(sbar @ sbar.T)
        tr_dst = float(np.einsum("ij,ij->", sbar, sbar))

        b = _eval_drift(src.drift, k, t, prefix, n_paths, d)
        fv_x[:, k + 1] = fv_x[:, k] + b * dt
        fv_y[k + 1] = fv_y[k] + bbar * dt

        sig = _eval_diffusion(src.diffusion, k, t, prefix, n_paths, d)
        cross = cross_of(sig @ xi[k])
        tr_src = np.einsum("...ij,...ij->...", sig, sig)
        bracket += (tr_src + tr_dst - 2.0 * cross) * dt

    # the integrand is nonnegative analytically; clip rounding residue so
    # g (e.g. sqrt) never sees a negative bracket
    bracket = np.maximum(bracket, 0.0)
    h_vals = np.asarray(spec.h(fv_x - fv_y[None]), dtype=float)
    g_vals = np.asarray(spec.g(bracket), dtype=float)
    value = _from_values(h_vals + g_vals, f"closed-form({spec.label})")
    rotation_of = ValueMemo(lambda a: trace_max_rotation(a)[0])

    def q_fn(k, t, x_prefix):
        if not 0 <= k < n:
            raise DomainError(
                f"optimal rotation is defined on {n} steps, got step {k}"
            )
        sig = _eval_diffusion(src.diffusion, k, k * dt, x_prefix, x_prefix.shape[0], d)
        return rotation_of(sig @ xi[k]).copy()

    q_star = RotationProcess(
        dim=d, fn=q_fn, label=f"trace-max(src={src.label}, dst={dst.label})"
    )
    return value, q_star


# ---------------------------------------------------------------------------
# candidate comparison


@dataclass(frozen=True)
class GapEntry:
    label: str
    estimate: CostEstimate
    gap: float
    combined_stderr: float
    beats_closed_form: bool


@dataclass(frozen=True)
class GapReport:
    closed_form: CostEstimate
    entries: tuple

    @property
    def any_flagged(self) -> bool:
        return any(e.beats_closed_form for e in self.entries)


def _candidate_label(cand: CoupledEnsemble) -> str:
    prov = cand.provenance
    detail = prov.get("correlation") or prov.get("rotation")
    base = prov.get("constructor", "coupling")
    return f"{base}[{detail}]" if detail else base


def optimality_gap(
    candidates: Sequence[CoupledEnsemble],
    spec: CostSpec,
    src: SdeModel,
    dst: SdeModel,
    closed_form: CostEstimate,
) -> GapReport:
    """Estimated cost of each candidate minus the closed-form optimum.

    Candidates must declare, via provenance, that they couple exactly the
    two model laws being compared.  A candidate is flagged when its mean
    undercuts the closed form by more than three combined standard errors
    - which should never happen if the closed form is truly optimal.
    """
    entries = []
    for cand in candidates:
        marginals = cand.provenance.get("marginals")
        if marginals is None:
            raise DomainError("candidate carries no marginal provenance")
        if list(marginals) != [src.label, dst.label]:
            raise DomainError(
                f"candidate couples {marginals}, expected "
                f"[{src.label!r}, {dst.label!r}]"
            )
        est = estimate(cand, spec, src, dst)
        combined = float(np.hypot(est.stderr, closed_form.stderr))
        gap = est.mean - closed_form.mean
        entries.append(
            GapEntry(
                label=_candidate_label(cand),
                estimate=est,
                gap=gap,
                combined_stderr=combined,
                beats_closed_form=gap < -3.0 * combined,
            )
        )
    return GapReport(closed_form=closed_form, entries=tuple(entries))
