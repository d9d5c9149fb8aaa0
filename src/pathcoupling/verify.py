"""Statistical certification of simulated ensembles and couplings.

Four diagnostics: a moment-based Brownian marginal test, realized
covariation (tested against a target), a per-step isometry certificate of
the drivers for Monge-type couplings (necessary, never sufficient), and a
nearest-neighbour probe of whether one marginal is a function of the other.

Every reduction over steps walks time-major storage a few MB at a time
(:func:`sde.time_blocks`): no path-major copy, no growth with n_steps.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from statistics import NormalDist

import numpy as np

from .coupling import CoupledEnsemble
from .errors import DimensionError, DomainError
from .linalg import MEMBERSHIP_TOL
from .sde import PathEnsemble, SdeModel, inverse_ito_map, time_blocks

_CHUNK = 1024  # test rows per block of the adaptedness probe

_N_FEATURES = 8  # grid points of X the adaptedness probe looks at


@dataclass(frozen=True)
class TestReport:
    """Outcome of one statistical check.

    ``passed`` is ``statistic <= threshold`` when ``comparison`` is
    ``"<="`` and ``statistic >= threshold`` for ``">="``.
    """

    name: str
    statistic: float
    threshold: float
    comparison: str
    passed: bool
    n_paths: int
    n_steps: int
    seed: int
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def _report(name, statistic, threshold, comparison, n_paths, n_steps, seed, details):
    statistic = float(statistic)
    threshold = float(threshold)
    passed = statistic <= threshold if comparison == "<=" else statistic >= threshold
    return TestReport(
        name=name,
        statistic=statistic,
        threshold=threshold,
        comparison=comparison,
        passed=bool(passed),
        n_paths=int(n_paths),
        n_steps=int(n_steps),
        seed=int(seed),
        details=details,
    )


# ---------------------------------------------------------------------------
# marginal law


def _wiener_sums(values, dt):
    """Sums of u, u_i u_j (i <= j) and u[k] u[k+1] over the paths and steps of the
    unit-scaled increments u of (N, n+1, d) ``values``, one time block at a time."""
    n_paths, _, d = values.shape
    scale = np.sqrt(dt)
    first, lag = np.zeros(d), np.zeros(d)
    second = np.zeros((d, d))
    prev = None
    for (v,) in time_blocks(values):
        u = np.subtract(v[1:], v[:-1])
        u /= scale  # unit variance under H0
        if prev is not None:  # the lag-1 pairs across the block boundary
            lag += np.einsum("pi,pi->i", prev, u[0])
        prev = u[-1].copy()
        flat = u.reshape(-1, d)  # row k N + p holds step k of the block, of path p
        for i in range(d):
            col = flat[:, i]
            first[i] += col.sum()
            lag[i] += np.einsum("k,k->", col[:-n_paths], col[n_paths:])
            for j in range(i, d):
                second[i, j] += np.einsum("k,k->", col, flat[:, j])
    return first, second, lag


def wiener_marginal_test(ensemble: PathEnsemble, alpha: float = 0.01) -> TestReport:
    """Moment checks that an ensemble's increments look Brownian.

    Pools increments across paths and steps and z-tests, per component:
    mean 0, variance dt, lag-1 autocorrelation 0, and pairwise
    cross-component correlation 0.  Sub-checks share the error budget by
    Bonferroni correction; the statistic is the largest |z| and the
    threshold the corrected two-sided normal quantile,
    ``statistics.NormalDist().inv_cdf(1 - alpha / (2 n_checks))``.  An
    ``alpha`` so small that this level rounds to 1 is a DomainError.
    """
    if not 0.0 < alpha < 0.5:
        raise DomainError(f"alpha must lie in (0, 0.5), got {alpha}")
    n_paths = ensemble.n_paths
    if n_paths == 0:
        raise DomainError("cannot test an empty ensemble")
    n = ensemble.grid.n_steps
    d = ensemble.d
    first, second, lag = _wiener_sums(ensemble.values, ensemble.grid.dt)
    m_obs = n_paths * n

    zs = {}
    mean_z = first / m_obs * np.sqrt(m_obs)
    var_z = (np.diagonal(second) / m_obs - 1.0) * np.sqrt(m_obs / 2.0)
    for i in range(d):
        zs[f"mean[{i}]"] = float(mean_z[i])
        zs[f"var[{i}]"] = float(var_z[i])
    if n >= 2:
        lag_z = lag / (n_paths * (n - 1)) * np.sqrt(n_paths * (n - 1))
        for i in range(d):
            zs[f"lag1[{i}]"] = float(lag_z[i])
    for i in range(d):
        for j in range(i + 1, d):
            zs[f"cross[{i},{j}]"] = float(second[i, j] / m_obs * np.sqrt(m_obs))

    n_checks = len(zs)
    level = 1.0 - alpha / (2.0 * n_checks)
    if level == 1.0:
        raise DomainError(f"alpha {alpha} is too small for {n_checks} checks: the threshold would be infinite")
    threshold = NormalDist().inv_cdf(level)
    statistic = max(abs(z) for z in zs.values())
    return _report(
        "wiener_marginal_test",
        statistic,
        threshold,
        "<=",
        n_paths,
        n,
        ensemble.seed,
        {"alpha": alpha, "n_checks": n_checks, "z": zs},
    )


# ---------------------------------------------------------------------------
# covariation


@dataclass(frozen=True)
class CovariationReport:
    """Realized covariation of a coupled ensemble: the ensemble average of the
    per-pair terminal matrix sum over steps of dX dY^T, and its standard error."""

    terminal_mean: np.ndarray
    terminal_stderr: np.ndarray
    n_pairs: int


def pair_covariation(x, y) -> np.ndarray:
    """Per-pair realized covariation sum_k dX_k dY_k^T of (N, n+1, d) legs: (N, d, d), summed over the
    steps of a block in step order, then over the blocks."""
    n_pairs, _, d = x.shape
    total, work = np.zeros((n_pairs, d, d)), None
    for bx, by in time_blocks(x, y):
        work = np.empty_like(by[1:]) if work is None else work  # reused; only the last block is shorter
        for i in range(d):  # row i of dX dY^T: a block of one leg's size, not d times that
            prod = np.subtract(by[1:], by[:-1], out=work[: len(by) - 1])
            prod *= np.subtract(bx[1:, :, i : i + 1], bx[:-1, :, i : i + 1])
            total[:, i] += prod.sum(axis=0)
    return total


def realized_covariation(ensemble: CoupledEnsemble) -> CovariationReport:
    """Terminal realized covariation: its mean over the pairs and its standard error."""
    n_pairs = ensemble.n_pairs
    if n_pairs == 0:
        raise DomainError("cannot estimate covariation of an empty ensemble")
    terminal = pair_covariation(ensemble.x, ensemble.y)
    terminal_stderr = terminal.std(axis=0, ddof=int(n_pairs > 1)) / np.sqrt(n_pairs)  # 0 for one pair
    return CovariationReport(terminal_mean=terminal.mean(axis=0), terminal_stderr=terminal_stderr, n_pairs=n_pairs)


def covariation_budget(report: CovariationReport, dt: float) -> np.ndarray:
    """Entrywise allowance for ``|terminal_mean - rho|``: three standard errors
    of sampling noise plus ``2 sqrt(dt)`` of discretisation."""
    return 3.0 * report.terminal_stderr + 2.0 * np.sqrt(dt)


def covariation_test(ensemble: CoupledEnsemble, target) -> TestReport:
    """Does the terminal realized covariation match ``target`` (a scalar times the
    identity, or d x d) entry by entry?  The statistic is the largest entrywise excess
    ``|terminal_mean - target| - covariation_budget``, the threshold 0: it passes only
    when every entry is within its own budget."""
    rep = realized_covariation(ensemble)
    target = np.asarray(target, dtype=float)
    if target.shape not in ((), (ensemble.d, ensemble.d)):
        raise DimensionError(f"covariation target must be a scalar or {ensemble.d} x {ensemble.d}, got shape {target.shape}")
    if target.ndim == 0:
        target = float(target) * np.eye(ensemble.d)
    budget = covariation_budget(rep, ensemble.grid.dt)
    excess = np.max(np.abs(rep.terminal_mean - target) - budget)
    details = {"target": target.tolist(), "terminal_mean": rep.terminal_mean.tolist(), "budget": budget.tolist()}
    return _report("realized_covariation", excess, 0.0, "<=", ensemble.n_pairs, ensemble.grid.n_steps, ensemble.seed, details)


def monge_certificate(
    ensemble: CoupledEnsemble,
    src: SdeModel | None = None,
    dst: SdeModel | None = None,
) -> TestReport:
    """Necessary isometry check for couplings induced by rotations.

    A transport dB~ = Q dB with Q orthogonal keeps the norm of every driver
    increment, so per pair sum_k | |dB~_k|^2 - |dB_k|^2 | / sum_k |dB_k|^2
    is rounding only; the statistic is its mean over the pairs.  The drivers
    are the legs, a leg with a model recovered as ``inverse_ito_map(src, x)``
    or ``inverse_ito_map(dst, y)``, as in ``cost.estimate``.  The threshold
    d * MEMBERSHIP_TOL admits every rotation the kernels admit, since
    |v^T (Q^T Q - I) v| <= d * defect * |v|^2.  A recovered driver rounds
    relative to the state, not to its increment, so a transport far from
    the origin can fail: ``monge_sde`` ou -> ou (theta = 2) with the identity
    rotation reads 4.5e-8 > 1e-8 at z0 = 1e8 (N = 200, n = 256).
    Passing is necessary but NOT sufficient for the coupling to be a
    transport map - Tanaka's pair is isometric and is not one.
    """
    n_pairs = ensemble.n_pairs
    if n_pairs == 0:
        raise DomainError("cannot certify an empty ensemble")
    legs = (ensemble.x_ensemble(), ensemble.y_ensemble())
    x, y = (leg.values if model is None else inverse_ito_map(model, leg).values for leg, model in zip(legs, (src, dst)))
    moved, norm = 0.0, 0.0
    for bx, by in time_blocks(x, y):
        sq_x, sq_y = (np.einsum("kpi,kpi->kp", db, db) for db in (np.diff(bx, axis=0), np.diff(by, axis=0)))
        moved += np.abs(sq_y - sq_x).sum(axis=0)
        norm += sq_x.sum(axis=0)
    still = ~(norm > 0.0)  # a NaN sum too
    if still.any():
        raise DomainError(f"the squared driver increments of {int(still.sum())} pair(s) sum to no positive number")
    return _report(
        "monge_certificate",
        np.mean(moved / norm),
        ensemble.d * MEMBERSHIP_TOL,
        "<=",
        n_pairs,
        ensemble.grid.n_steps,
        ensemble.seed,
        {"necessary_only": True},
    )


# ---------------------------------------------------------------------------
# adaptedness probe


def adaptedness_probe(
    ensemble: CoupledEnsemble,
    k_neighbors: int = 5,
    threshold: float = 0.75,
) -> TestReport:
    """Can sign(Y_1) be predicted from the X path?

    Coarsens X (first component) to 8 grid points, scales
    each by 1/sqrt(t), and runs a k-nearest-neighbour vote for
    sign(Y_1) on a 75/25 train/test split (zero counts as negative).
    Couplings where Y is a path functional of X score near 1; the
    sign-flip construction scores near 1/2 because sign(Y_1) is
    asymptotically independent of X.  Heuristic by design -- an
    illustration, not a proof of (non-)adaptedness.  Blind spot: a
    transport whose rotation reads fine-scale features of X is called
    non-adapted too, since 8 knots cannot see them; Q_k = sign(X_k - X_{k-1})
    scores 0.50-0.52 at N = 4000, n = 1024, and passes the certificate.
    """
    n_pairs = ensemble.n_pairs
    if n_pairs < 1000:
        raise DomainError(
            f"adaptedness probe needs at least 1000 pairs, got {n_pairs}"
        )
    if k_neighbors < 1 or k_neighbors % 2 == 0:
        raise DomainError(f"k_neighbors must be a positive odd count, got {k_neighbors}")
    grid = ensemble.grid
    n, dt = grid.n_steps, grid.dt
    idx = np.unique(np.round(np.linspace(1, n, _N_FEATURES)).astype(int))
    times = idx * dt
    feats = ensemble.x[:, idx, 0] / np.sqrt(times)
    labels = np.where(ensemble.y[:, -1, 0] > 0, 1.0, -1.0)

    n_train = (3 * n_pairs) // 4
    train, test = feats[:n_train], feats[n_train:]
    train_labels = labels[:n_train]
    train_sq = np.einsum("pf,pf->p", train, train)
    votes = np.empty(test.shape[0])
    for lo in range(0, test.shape[0], _CHUNK):
        hi = min(lo + _CHUNK, test.shape[0])
        te = test[lo:hi]
        d2 = np.einsum("pf,pf->p", te, te)[:, None] - 2.0 * te @ train.T + train_sq[None]
        nearest = np.argpartition(d2, k_neighbors - 1, axis=1)[:, :k_neighbors]
        votes[lo:hi] = train_labels[nearest].sum(axis=1)
    preds = np.where(votes > 0, 1.0, -1.0)
    accuracy = float(np.mean(preds == labels[n_train:]))
    return _report(
        "adaptedness_probe",
        accuracy,
        threshold,
        ">=",
        n_pairs,
        n,
        ensemble.seed,
        {
            "k_neighbors": k_neighbors,
            "n_train": int(n_train),
            "n_test": int(n_pairs - n_train),
            "feature_times": times.tolist(),
        },
    )
