"""Statistical certification of simulated ensembles and couplings.

Four diagnostics: a moment-based Brownian marginal test, realized
covariation (tested against a target) with a windowed correlation-density
estimate, an orthogonality certificate for Monge-type couplings (necessary,
never sufficient), and a nearest-neighbour probe of whether one marginal
is a function of the other.

The Brownian marginal test reduces straight from time-major storage, a
few MB of time slices at a time, so its memory does not grow with n_steps.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import stats

from .coupling import CoupledEnsemble
from .errors import DomainError
from .sde import PathEnsemble

DEFAULT_WINDOW = 64

_CHUNK = 1024  # pairs per block in chunked reductions

_BLOCK_BYTES = 1 << 21  # bytes of increments per block in the time-blocked Wiener sums

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


def _increments(values, n_steps):
    """values[:, 1:n_steps+1] - values[:, :n_steps], written straight into a C-ordered
    (N, n_steps, d) array: no whole copy of a time-major input, one summation order."""
    out = np.empty((values.shape[0], n_steps, values.shape[2]))
    return np.subtract(values[:, 1 : n_steps + 1], values[:, :n_steps], out=out)


# ---------------------------------------------------------------------------
# marginal law


def _wiener_sums(values, dt):
    """Sums of u, u_i u_j (i <= j) and u[k] u[k+1] over the paths and steps of the
    unit-scaled increments u of time-major ``values`` (n+1, N, d), formed
    ``_BLOCK_BYTES`` of time slices at a time."""
    n = values.shape[0] - 1
    n_paths, d = values.shape[1:]
    scale = np.sqrt(dt)
    block = max(1, _BLOCK_BYTES // (8 * n_paths * d))
    first, lag = np.zeros(d), np.zeros(d)
    second = np.zeros((d, d))
    prev = None
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        u = np.subtract(values[lo + 1 : hi + 1], values[lo:hi])
        u /= scale  # unit variance under H0
        if prev is not None:  # the lag-1 pairs across the block boundary
            lag += np.einsum("pi,pi->i", prev, u[0])
        prev = u[-1].copy()
        flat = u.reshape(-1, d)  # row k N + p holds step lo + k of path p
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
    threshold the corrected two-sided normal quantile.
    """
    if not 0.0 < alpha < 0.5:
        raise DomainError(f"alpha must lie in (0, 0.5), got {alpha}")
    values = np.swapaxes(ensemble.values, 0, 1)  # (n+1, N, d); a view for any layout
    n_paths = values.shape[1]
    if n_paths == 0:
        raise DomainError("cannot test an empty ensemble")
    n = ensemble.grid.n_steps
    d = ensemble.d
    first, second, lag = _wiener_sums(values, ensemble.grid.dt)
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
    threshold = float(stats.norm.ppf(1.0 - alpha / (2.0 * n_checks)))
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
    """Realized covariation of a coupled ensemble.

    ``terminal_mean`` is the ensemble average of the per-pair terminal
    matrix sum over steps of dX dY^T; ``rho_hat`` is the windowed,
    ensemble-averaged derivative estimate (left-aligned windows of
    ``window`` steps; a trailing partial window is dropped).
    """

    terminal_mean: np.ndarray
    terminal_stderr: np.ndarray
    rho_hat: np.ndarray
    window: int
    window_times: np.ndarray
    n_pairs: int


def _window(window, n) -> int:
    """The window length in steps, capped at ``n``; below one step is a DomainError."""
    w = min(int(window), n)
    if w < 1:
        raise DomainError(f"window must be positive, got {window}")
    return w


def _windowed_rho(x, y, n_win, w, dt):
    d = x.shape[2]
    dx = _increments(x, n_win * w).reshape(-1, n_win, w, d)
    dy = _increments(y, n_win * w).reshape(-1, n_win, w, d)
    return np.einsum("pnwi,pnwj->pnij", dx, dy) / (w * dt)


def realized_covariation(ensemble: CoupledEnsemble, window: int = DEFAULT_WINDOW) -> CovariationReport:
    """Terminal realized covariation and a windowed correlation estimate."""
    n_pairs = ensemble.n_pairs
    if n_pairs == 0:
        raise DomainError("cannot estimate covariation of an empty ensemble")
    grid = ensemble.grid
    n, dt = grid.n_steps, grid.dt
    dx = _increments(ensemble.x, n)
    dy = _increments(ensemble.y, n)
    terminal = np.einsum("pki,pkj->pij", dx, dy)
    terminal_mean = terminal.mean(axis=0)
    if n_pairs > 1:
        terminal_stderr = terminal.std(axis=0, ddof=1) / np.sqrt(n_pairs)
    else:
        terminal_stderr = np.zeros_like(terminal_mean)

    w = _window(window, n)
    n_win = n // w
    rho_hat = _windowed_rho(ensemble.x, ensemble.y, n_win, w, dt).mean(axis=0)
    return CovariationReport(
        terminal_mean=terminal_mean,
        terminal_stderr=terminal_stderr,
        rho_hat=rho_hat,
        window=w,
        window_times=np.arange(n_win) * (w * dt),
        n_pairs=n_pairs,
    )


def covariation_budget(report: CovariationReport, dt: float) -> np.ndarray:
    """Entrywise allowance for ``|terminal_mean - rho|``: three standard errors
    of sampling noise plus ``2 sqrt(dt)`` of discretisation."""
    return 3.0 * report.terminal_stderr + 2.0 * np.sqrt(dt)


def covariation_test(ensemble: CoupledEnsemble, target, window: int = DEFAULT_WINDOW) -> TestReport:
    """Does the terminal realized covariation match ``target`` (a scalar times the
    identity, or d x d)?  The statistic is the largest entrywise deviation, the
    threshold the largest entry of :func:`covariation_budget`."""
    rep = realized_covariation(ensemble, window=window)
    target = np.asarray(target, dtype=float)
    if target.ndim == 0:
        target = float(target) * np.eye(ensemble.d)
    dev = np.max(np.abs(rep.terminal_mean - target))
    budget = np.max(covariation_budget(rep, ensemble.grid.dt))
    details = {"target": target.tolist(), "terminal_mean": rep.terminal_mean.tolist()}
    return _report("realized_covariation", dev, budget, "<=", ensemble.n_pairs, ensemble.grid.n_steps, ensemble.seed, details)


def monge_certificate(
    ensemble: CoupledEnsemble,
    window: int = DEFAULT_WINDOW,
    tol: float | None = None,
) -> TestReport:
    """Necessary orthogonality check for couplings induced by rotations.

    Estimates the correlation density on disjoint windows, pair by pair,
    and averages the defect max|rho^T rho - Id|.  Couplings driven by an
    orthogonal rotation process leave only estimation noise, so the
    default tolerance budgets the O(1/sqrt(window)) noise floor:
    tol = 3/sqrt(window) + 0.05.  Passing is necessary but NOT sufficient
    for the coupling to be a transport map - a sign-flip construction
    with no strong solution passes while not being one.
    """
    n_pairs = ensemble.n_pairs
    if n_pairs == 0:
        raise DomainError("cannot certify an empty ensemble")
    grid = ensemble.grid
    n, dt = grid.n_steps, grid.dt
    d = ensemble.d
    w = _window(window, n)
    n_win = n // w
    if tol is None:
        tol = 3.0 / np.sqrt(w) + 0.05

    eye = np.eye(d)
    total = 0.0
    count = 0
    for lo in range(0, n_pairs, _CHUNK):
        hi = min(lo + _CHUNK, n_pairs)
        rho = _windowed_rho(ensemble.x[lo:hi], ensemble.y[lo:hi], n_win, w, dt)
        gram = np.einsum("pnki,pnkj->pnij", rho, rho)
        dev = np.abs(gram - eye).max(axis=(2, 3))
        total += float(dev.sum())
        count += dev.size
    statistic = total / count
    return _report(
        "monge_certificate",
        statistic,
        tol,
        "<=",
        n_pairs,
        n,
        ensemble.seed,
        {"window": w, "n_windows": n_win, "necessary_only": True},
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
    illustration, not a proof of (non-)adaptedness.
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
