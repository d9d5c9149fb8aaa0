"""Tests for the statistical certification tools."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats

from pathcoupling import presets, verify
from pathcoupling.coupling import (
    CorrelationProcess,
    couple_brownians,
    rotation_monge,
    tanaka_coupling,
)
from pathcoupling.errors import DomainError
from pathcoupling.linalg import is_correlation
from pathcoupling.sde import PathEnsemble, TimeGrid, ito_map, sample_brownian


def _rotation_d2(scale=0.5):
    return presets.build("rotation", "rotation-by-state", d=2, scale=scale)


def _windowed_rho_oracle(x, y, w, dt):
    """Straightforward reimplementation of the windowed estimator."""
    dx = np.diff(x, axis=1)
    dy = np.diff(y, axis=1)
    n_win = dx.shape[1] // w
    out = np.empty((x.shape[0], n_win, x.shape[2], x.shape[2]))
    for p in range(x.shape[0]):
        for i in range(n_win):
            blk_x = dx[p, i * w : (i + 1) * w]
            blk_y = dy[p, i * w : (i + 1) * w]
            out[p, i] = blk_x.T @ blk_y / (w * dt)
    return out


def _wiener_oracle(ens, alpha=0.01):
    """One-shot reimplementation of the Wiener moment test on a path-major copy:
    (z by name, threshold, passed)."""
    u = np.diff(np.ascontiguousarray(ens.values), axis=1) / np.sqrt(ens.grid.dt)
    n_paths, n, d = u.shape
    m_obs = n_paths * n
    z = {}
    for i in range(d):
        z[f"mean[{i}]"] = u[..., i].mean() * np.sqrt(m_obs)
        z[f"var[{i}]"] = (np.mean(u[..., i] ** 2) - 1.0) * np.sqrt(m_obs / 2.0)
    if n >= 2:
        for i in range(d):
            z[f"lag1[{i}]"] = np.mean(u[:, :-1, i] * u[:, 1:, i]) * np.sqrt(n_paths * (n - 1))
    for i in range(d):
        for j in range(i + 1, d):
            z[f"cross[{i},{j}]"] = np.mean(u[..., i] * u[..., j]) * np.sqrt(m_obs)
    threshold = float(stats.norm.ppf(1.0 - alpha / (2.0 * len(z))))
    return z, threshold, max(abs(v) for v in z.values()) <= threshold


# ---------------------------------------------------------------------------
# report semantics


def test_report_pass_semantics():
    rep = verify._report("t", 1.0, 2.0, "<=", 1, 1, 0, {})
    assert rep.passed
    rep = verify._report("t", 3.0, 2.0, "<=", 1, 1, 0, {})
    assert not rep.passed
    rep = verify._report("t", 0.9, 0.75, ">=", 1, 1, 0, {})
    assert rep.passed
    rep = verify._report("t", 0.5, 0.75, ">=", 1, 1, 0, {})
    assert not rep.passed
    assert rep.as_dict()["comparison"] == ">="


# ---------------------------------------------------------------------------
# wiener_marginal_test


def test_wiener_passes_on_brownian_d2():
    ens = sample_brownian(TimeGrid(256), 2, 1000, seed=101)
    rep = verify.wiener_marginal_test(ens, alpha=0.01)
    assert rep.passed
    assert rep.details["n_checks"] == 2 + 2 + 2 + 1


# d1-blocks and d3-blocks span three 2 MB time blocks of the streamed sums, the last one partial
@pytest.mark.parametrize(
    "n, d, n_paths",
    [(1, 2, 50), (2, 1, 40), (200, 1, 3000), (300, 3, 700), (64, 3, 10)],
    ids=["n1", "n2", "d1-blocks", "d3-blocks", "d3-one-block"],
)
@pytest.mark.parametrize("layout", ["time-major", "path-major"])
def test_wiener_streamed_sums_match_one_shot_oracle(n, d, n_paths, layout):
    ens = sample_brownian(TimeGrid(n), d, n_paths, seed=n + d)
    if layout == "path-major":
        ens = PathEnsemble(grid=ens.grid, values=np.ascontiguousarray(ens.values), seed=ens.seed)
    z, threshold, passed = _wiener_oracle(ens)
    rep = verify.wiener_marginal_test(ens)
    assert list(rep.details["z"]) == list(z)
    assert ("lag1[0]" in z) == (n >= 2) and sum(k.startswith("cross") for k in z) == d * (d - 1) // 2
    for key, want in z.items():
        assert rep.details["z"][key] == pytest.approx(want, rel=0.0, abs=1e-9)
    assert rep.threshold == threshold
    assert rep.details["n_checks"] == len(z)
    assert rep.passed == passed


def test_wiener_allocates_no_full_size_temporary():
    # a (2000, 1024, 2) increment array alone is 33 MB
    ens = sample_brownian(TimeGrid(1024), 2, 2000, seed=5)
    tracemalloc.start()
    try:
        verify.wiener_marginal_test(ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_wiener_input_validation():
    ens = sample_brownian(TimeGrid(8), 1, 4, seed=1)
    with pytest.raises(DomainError):
        verify.wiener_marginal_test(ens, alpha=0.6)
    empty = PathEnsemble(grid=TimeGrid(8), values=np.zeros((0, 9, 1)), seed=0)
    with pytest.raises(DomainError):
        verify.wiener_marginal_test(empty)


def test_wiener_calibration_rate():
    # On true Brownian input the Bonferroni union bound caps the false
    # alarm rate at alpha; demand >= 1 - alpha - 0.02 over 200 seeds.
    passes = sum(
        verify.wiener_marginal_test(sample_brownian(TimeGrid(64), 1, 200, seed=s)).passed
        for s in range(200)
    )
    assert passes / 200 >= 1 - 0.01 - 0.02


def test_wiener_fails_on_mean_reverting_start():
    # an OU started away from its mean has systematically negative
    # increments, a z of order sqrt(N) on the pooled mean
    model = presets.build("model", "ou", d=1, theta=1.0, mean=0.0, sigma=1.0, z0=2.0)
    ens = ito_map(model, sample_brownian(TimeGrid(128), 1, 500, seed=7))
    rep = verify.wiener_marginal_test(ens)
    assert not rep.passed
    assert abs(rep.details["z"]["mean[0]"]) > 10


def test_wiener_passes_on_state_dependent_rotation():
    # rotating Brownian increments by a path-dependent orthogonal matrix
    # leaves the marginal law Brownian
    driver = sample_brownian(TimeGrid(256), 2, 2000, seed=31)
    ens = rotation_monge(_rotation_d2(), driver)
    rep = verify.wiener_marginal_test(ens.y_ensemble(), alpha=0.01)
    assert rep.passed


# ---------------------------------------------------------------------------
# realized covariation


def test_covariation_terminal_synchronous_and_antithetic():
    grid = TimeGrid(256)
    budget = 2 * np.sqrt(grid.dt)
    for c, target in ((1.0, 1.0), (-1.0, -1.0)):
        ens = couple_brownians(CorrelationProcess.constant(c, 1), grid, 2000, seed=41)
        rep = verify.realized_covariation(ens)
        tol = 3 * rep.terminal_stderr[0, 0] + budget
        assert abs(rep.terminal_mean[0, 0] - target) <= tol


def test_covariation_constant_rho_07():
    ens = couple_brownians(CorrelationProcess.constant(0.7, 1), TimeGrid(256), 10_000, seed=42)
    rep = verify.realized_covariation(ens)
    assert abs(rep.terminal_mean[0, 0] - 0.7) <= 0.02


def test_covariation_matrix_rho_d2():
    theta = np.pi / 6
    rho = 0.8 * np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    grid = TimeGrid(256)
    ens = couple_brownians(CorrelationProcess.constant(rho), grid, 4000, seed=43)
    rep = verify.realized_covariation(ens)
    tol = 3 * rep.terminal_stderr + 2 * np.sqrt(grid.dt)
    assert np.all(np.abs(rep.terminal_mean - rho) <= tol)


def test_covariation_windowed_tracks_rho_and_matches_oracle():
    grid = TimeGrid(512)
    ens = couple_brownians(CorrelationProcess.constant(0.5, 1), grid, 2000, seed=44)
    rep = verify.realized_covariation(ens, window=64)
    assert rep.rho_hat.shape == (8, 1, 1)
    assert np.max(np.abs(rep.rho_hat - 0.5)) < 0.02
    assert np.allclose(rep.window_times, np.arange(8) * 64 * grid.dt)
    oracle = _windowed_rho_oracle(ens.x[:16], ens.y[:16], 64, grid.dt).mean(axis=0)
    small = verify.realized_covariation(
        type(ens)(grid=grid, x=ens.x[:16], y=ens.y[:16], seed=0), window=64
    )
    assert np.allclose(small.rho_hat, oracle, atol=1e-12)


def test_covariation_test_against_scalar_and_matrix_targets():
    theta = np.pi / 6
    rho = 0.8 * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    grid = TimeGrid(64)
    ens = couple_brownians(CorrelationProcess.constant(rho), grid, 500, seed=46)
    cov = verify.realized_covariation(ens)
    rep = verify.covariation_test(ens, rho.tolist())
    assert rep.name == "realized_covariation" and rep.comparison == "<=" and rep.passed
    assert rep.statistic == np.max(np.abs(cov.terminal_mean - rho))
    assert rep.threshold == np.max(3 * cov.terminal_stderr + 2 * np.sqrt(grid.dt))
    assert (rep.n_paths, rep.n_steps, rep.seed) == (500, 64, 46)
    assert rep.details == {"target": rho.tolist(), "terminal_mean": cov.terminal_mean.tolist()}
    # a scalar target is that multiple of the identity: the identity is not what rho is
    scalar = verify.covariation_test(ens, 1.0)
    assert scalar.details["target"] == [[1.0, 0.0], [0.0, 1.0]]
    assert scalar.statistic == np.max(np.abs(cov.terminal_mean - np.eye(2))) and not scalar.passed


def test_covariation_window_clamped_to_grid():
    ens = couple_brownians(CorrelationProcess.constant(0.0, 1), TimeGrid(16), 8, seed=45)
    rep = verify.realized_covariation(ens, window=64)
    assert rep.window == 16 and rep.rho_hat.shape[0] == 1


# ---------------------------------------------------------------------------
# monge certificate


@pytest.mark.parametrize("window", [0, -4])
def test_certificate_rejects_a_window_below_one_step(window):
    ens = couple_brownians(CorrelationProcess.constant(0.0, 1), TimeGrid(16), 8, seed=45)
    with pytest.raises(DomainError, match="window must be positive"):
        verify.monge_certificate(ens, window=window)


def test_certificate_passes_on_sign_rotation():
    q = presets.build("rotation", "sign", d=1, s=-1)
    driver = sample_brownian(TimeGrid(1024), 1, 1000, seed=51)
    rep = verify.monge_certificate(rotation_monge(q, driver))
    assert rep.passed
    assert rep.details["necessary_only"]


def test_certificate_passes_on_state_dependent_rotation_d2():
    # the max-norm defect pools d^2 noisy entries, so the noise floor
    # grows with dimension; at d=2 a wider window is needed to clear the
    # default tolerance (at window=64 even the synchronous identity
    # coupling sits at ~0.44 against a 0.425 budget)
    driver = sample_brownian(TimeGrid(2048), 2, 1000, seed=52)
    rep = verify.monge_certificate(rotation_monge(_rotation_d2(), driver), window=256)
    assert rep.passed


def test_certificate_fails_on_constant_rho_07():
    ens = couple_brownians(CorrelationProcess.constant(0.7, 1), TimeGrid(1024), 2000, seed=53)
    rep = verify.monge_certificate(ens)
    assert not rep.passed
    # the defect concentrates near |0.49 - 1|
    assert 0.4 < rep.statistic < 0.6


def test_certificate_passes_on_tanaka():
    ens = tanaka_coupling(TimeGrid(4096), 2000, seed=54)
    rep = verify.monge_certificate(ens)
    assert rep.passed


@pytest.mark.xfail(
    strict=True,
    reason=(
        "correlation 0.9 sits inside the certificate's noise floor at "
        "window 64: the defect |0.81 - 1| = 0.19 is below the default "
        "tolerance 3/sqrt(64) + 0.05 = 0.425, so the certificate cannot "
        "flag it at these sizes"
    ),
)
def test_certificate_flags_rho_09_at_default_window():
    ens = couple_brownians(CorrelationProcess.constant(0.9, 1), TimeGrid(4096), 10_000, seed=55)
    rep = verify.monge_certificate(ens, window=64)
    assert not rep.passed


def test_windowed_rho_is_admissible_correlation():
    # the reported (ensemble-averaged) windowed estimate must stay inside
    # the admissible class up to its own noise scale; per-pair estimates
    # at |rho| = 1 overshoot a 3/sqrt(w) budget a few percent of the
    # time because their fluctuation scale is sqrt(2/w)
    w = 64
    grid = TimeGrid(512)
    for ens in (
        couple_brownians(CorrelationProcess.constant(0.7, 1), grid, 256, seed=56),
        rotation_monge(
            presets.build("rotation", "sign", d=1, s=-1),
            sample_brownian(grid, 1, 256, seed=57),
        ),
    ):
        rho_hat = verify.realized_covariation(ens, window=w).rho_hat
        assert is_correlation(rho_hat, tol=3 / np.sqrt(w))


# ---------------------------------------------------------------------------
# adaptedness probe


def test_adaptedness_synchronous_and_antithetic_pass():
    grid = TimeGrid(256)
    for c in (1.0, -1.0):
        ens = couple_brownians(CorrelationProcess.constant(c, 1), grid, 2000, seed=61)
        rep = verify.adaptedness_probe(ens)
        assert rep.passed
        assert rep.statistic > 0.9


def test_adaptedness_tanaka_fails_near_half():
    ens = tanaka_coupling(TimeGrid(256), 4000, seed=62)
    rep = verify.adaptedness_probe(ens)
    assert not rep.passed
    assert abs(rep.statistic - 0.5) <= 0.05


def test_adaptedness_validates_input():
    ens = couple_brownians(CorrelationProcess.constant(1.0, 1), TimeGrid(16), 100, seed=63)
    with pytest.raises(DomainError):
        verify.adaptedness_probe(ens)
    big = couple_brownians(CorrelationProcess.constant(1.0, 1), TimeGrid(16), 1000, seed=64)
    with pytest.raises(DomainError):
        verify.adaptedness_probe(big, k_neighbors=4)
