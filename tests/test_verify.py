"""Tests for the statistical certification tools."""

from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pathcoupling import coupling, cost, experiments, presets, sde, verify
from pathcoupling.coupling import (
    CoupledEnsemble,
    couple_brownians,
    rotation_monge,
    tanaka_coupling,
)
from pathcoupling.errors import DimensionError, DomainError
from pathcoupling.linalg import MEMBERSHIP_TOL
from pathcoupling.sde import CoefficientField, PathEnsemble, TimeGrid, ito_map, sample_brownian


def _rotation_d2(scale=0.5):
    return presets.build("rotation", "rotation-by-state", d=2, scale=scale)


def _isometry_oracle(x, y):
    """The certificate's statistic on a path-major copy: per pair, the summed
    |  |dY_k|^2 - |dX_k|^2 | over the summed |dX_k|^2, averaged over pairs."""
    sq_x, sq_y = (np.sum(np.diff(np.ascontiguousarray(v), axis=1) ** 2, axis=2) for v in (x, y))
    return np.mean(np.abs(sq_y - sq_x).sum(axis=1) / sq_x.sum(axis=1))


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
    threshold = NormalDist().inv_cdf(1.0 - alpha / (2.0 * len(z)))
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


def test_wiener_allocates_no_full_size_temporary(traced_peak):
    # a (2000, 1024, 2) increment array alone is 33 MB
    ens = sample_brownian(TimeGrid(1024), 2, 2000, seed=5)
    peak = traced_peak(lambda: verify.wiener_marginal_test(ens))
    assert peak < 16 * 2**20


def test_wiener_input_validation():
    ens = sample_brownian(TimeGrid(8), 1, 4, seed=1)
    with pytest.raises(DomainError):
        verify.wiener_marginal_test(ens, alpha=0.6)
    empty = PathEnsemble(grid=TimeGrid(8), values=np.zeros((0, 9, 1)), seed=0)
    with pytest.raises(DomainError):
        verify.wiener_marginal_test(empty)


@pytest.mark.parametrize("alpha", [1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.2, 0.49])
def test_wiener_threshold_agrees_with_scipy_quantile(alpha):
    for m in range(2, 61):
        level = 1.0 - alpha / (2.0 * m)
        assert NormalDist().inv_cdf(level) == pytest.approx(stats.norm.ppf(level), rel=2e-15, abs=0.0)


def test_wiener_rejects_an_alpha_whose_threshold_is_infinite():
    ens = sample_brownian(TimeGrid(8), 1, 4, seed=1)  # 3 checks
    assert verify.wiener_marginal_test(ens, alpha=1e-15).threshold > 8.0
    with pytest.raises(DomainError, match="alpha 1e-17 is too small for 3 checks"):
        verify.wiener_marginal_test(ens, alpha=1e-17)


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
        ens = couple_brownians(CoefficientField.constant("correlation", c, 1), grid, 2000, seed=41)
        rep = verify.realized_covariation(ens)
        tol = 3 * rep.terminal_stderr[0, 0] + budget
        assert abs(rep.terminal_mean[0, 0] - target) <= tol


def test_covariation_constant_rho_07():
    ens = couple_brownians(CoefficientField.constant("correlation", 0.7, 1), TimeGrid(256), 10_000, seed=42)
    rep = verify.realized_covariation(ens)
    assert abs(rep.terminal_mean[0, 0] - 0.7) <= 0.02


def test_covariation_matrix_rho_d2():
    theta = np.pi / 6
    rho = 0.8 * np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    grid = TimeGrid(256)
    ens = couple_brownians(CoefficientField.constant("correlation", rho), grid, 4000, seed=43)
    rep = verify.realized_covariation(ens)
    tol = 3 * rep.terminal_stderr + 2 * np.sqrt(grid.dt)
    assert np.all(np.abs(rep.terminal_mean - rho) <= tol)


def test_covariation_test_against_scalar_and_matrix_targets():
    theta = np.pi / 6
    rho = 0.8 * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    grid = TimeGrid(64)
    ens = couple_brownians(CoefficientField.constant("correlation", rho), grid, 500, seed=46)
    cov = verify.realized_covariation(ens)
    budget = 3 * cov.terminal_stderr + 2 * np.sqrt(grid.dt)
    rep = verify.covariation_test(ens, rho.tolist())
    assert rep.name == "realized_covariation" and rep.comparison == "<=" and rep.passed
    assert rep.statistic == np.max(np.abs(cov.terminal_mean - rho) - budget) and rep.threshold == 0.0
    assert (rep.n_paths, rep.n_steps, rep.seed) == (500, 64, 46)
    assert rep.details == {"target": rho.tolist(), "terminal_mean": cov.terminal_mean.tolist(), "budget": budget.tolist()}
    # a scalar target is that multiple of the identity: the identity is not what rho is
    scalar = verify.covariation_test(ens, 1.0)
    assert scalar.details["target"] == [[1.0, 0.0], [0.0, 1.0]]
    assert scalar.statistic == np.max(np.abs(cov.terminal_mean - np.eye(2)) - budget) and not scalar.passed
    # a target of another shape is not broadcast to d x d
    with pytest.raises(DimensionError, match=r"scalar or 2 x 2, got shape \(2,\)"):
        verify.covariation_test(ens, [0.5, 0.5])


def test_covariation_test_judges_each_entry_by_its_own_budget():
    # entry (1, 1) is the same 0.51 from its target on every pair, so its budget is the 2 sqrt(dt) = 0.5
    # of discretisation alone; entry (0, 0) is on target but spread, with a budget of about 2.9
    n_pairs, n = 40, 16
    dx = np.zeros((n_pairs, n, 2))
    dx[:, 0, 0] = np.sqrt(np.resize([0.0, 10.0], n_pairs))  # terminal covariation 0 or 10, mean 5
    dx[:, n // 2 :, 1] = np.sqrt(0.51 / (n // 2))
    x = np.concatenate([np.zeros((n_pairs, 1, 2)), np.cumsum(dx, axis=1)], axis=1)
    pair = CoupledEnsemble(grid=TimeGrid(n), x=x, y=x, seed=0)
    budget = verify.covariation_budget(verify.realized_covariation(pair), pair.grid.dt)
    assert budget[1, 1] == pytest.approx(0.5) and budget[0, 0] > 2.8
    rep = verify.covariation_test(pair, [[5.0, 0.0], [0.0, 0.0]])
    assert not rep.passed and rep.statistic == pytest.approx(0.01) and rep.threshold == 0.0


# ---------------------------------------------------------------------------
# monge certificate


def test_certificate_passes_on_sign_rotation():
    q = presets.build("rotation", "sign", d=1, s=-1)
    driver = sample_brownian(TimeGrid(1024), 1, 1000, seed=51)
    rep = verify.monge_certificate(rotation_monge(q, driver))
    assert rep.passed
    assert rep.details["necessary_only"]
    assert rep.threshold == MEMBERSHIP_TOL


def test_certificate_passes_on_state_dependent_rotation_d2():
    driver = sample_brownian(TimeGrid(2048), 2, 1000, seed=52)
    rep = verify.monge_certificate(rotation_monge(_rotation_d2(), driver))
    assert rep.passed and rep.threshold == 2 * MEMBERSHIP_TOL


# rho dB + sqrt(1 - rho^2) dW squares to dB^2 plus sqrt(1 - rho^2) (U^2 - V^2) dt, U and V
# independent standard normals, and E|U^2 - V^2| = 4/pi: the statistic's population value
def _contraction_defect(rho):
    return 4.0 / np.pi * np.sqrt(1.0 - rho**2)


def test_certificate_fails_on_constant_rho_07():
    ens = couple_brownians(CoefficientField.constant("correlation", 0.7, 1), TimeGrid(1024), 2000, seed=53)
    rep = verify.monge_certificate(ens)
    assert not rep.passed
    assert abs(rep.statistic - _contraction_defect(0.7)) < 0.02


def test_certificate_passes_on_tanaka():
    ens = tanaka_coupling(TimeGrid(4096), 2000, seed=54)
    rep = verify.monge_certificate(ens)
    assert rep.passed


def test_certificate_flags_rho_09():
    ens = couple_brownians(CoefficientField.constant("correlation", 0.9, 1), TimeGrid(4096), 10_000, seed=55)
    rep = verify.monge_certificate(ens)
    assert not rep.passed
    assert abs(rep.statistic - _contraction_defect(0.9)) < 0.02


@pytest.mark.parametrize("c", [0.5, 0.3])
def test_certificate_passes_the_chop(c):
    # a genuine transport whose Q switches sign every few steps
    rep = verify.monge_certificate(rotation_monge(coupling.chop_rotation(c), sample_brownian(TimeGrid(1024), 1, 2000, seed=58)))
    assert rep.passed and rep.statistic < 1e-14


def test_certificate_passes_the_sign_of_the_last_increment():
    # Q_k = sign(X_k - X_{k-1}), +1 at step 0: a transport that reads a fine-scale feature of X
    q = CoefficientField("rotation", 1, lambda k, t, xp: np.where(xp[:, -1] >= xp[:, max(k - 1, 0)], 1.0, -1.0)[:, :, None])
    pair = rotation_monge(q, sample_brownian(TimeGrid(1024), 1, 2000, seed=59))
    rep = verify.monge_certificate(pair)
    assert rep.passed and rep.statistic < 1e-14


def test_certificate_recovers_the_drivers_of_each_leg_with_a_model():
    src = presets.build("model", "ou", d=1)
    dst = presets.build("model", "gbm-bounded", d=1)
    pair = coupling.composed_monge(src, dst, presets.build("rotation", "sign", d=1), TimeGrid(256), 500, seed=60)
    assert not verify.monge_certificate(pair).passed  # the legs are not the drivers
    assert verify.monge_certificate(pair, src, dst).passed
    # one model: only the y leg is recovered, and its driver is not x
    assert not verify.monge_certificate(pair, None, dst).passed


def test_certificate_refuses_a_pair_whose_driver_never_moves():
    x = np.zeros((3, 9, 1))
    x[1:, 1:] = 1.0  # pairs 1 and 2 move at step 0
    pair = CoupledEnsemble(grid=TimeGrid(8), x=x, y=x, seed=0)
    with pytest.raises(DomainError, match="of 1 pair"):
        verify.monge_certificate(pair)


# ---------------------------------------------------------------------------
# the block walk over steps


@st.composite
def _walked_pairs(draw):
    """Random coupled legs (N <= 6, n <= 40, d <= 3) in time-major or path-major storage,
    and an Lp exponent."""
    n_pairs, n, d = draw(st.integers(1, 6)), draw(st.integers(1, 40)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    legs = np.cumsum(rng.standard_normal((2, n + 1, n_pairs, d)), axis=1)  # time-major storage
    x, y = np.swapaxes(legs[0], 0, 1), np.swapaxes(legs[1], 0, 1)
    if draw(st.booleans()):
        x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    pair = CoupledEnsemble(grid=TimeGrid(n), x=x, y=y, seed=0)
    return pair, draw(st.sampled_from([1.0, 2.0, 3.5]))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=_walked_pairs())
def test_every_reduction_over_steps_matches_its_path_major_oracle(case):
    pair, p = case
    x, y, dt = pair.x, pair.y, pair.grid.dt
    dx, dy = np.diff(x, axis=1), np.diff(y, axis=1)
    cov = np.einsum("pki,pkj->pij", dx, dy)
    z, _, _ = _wiener_oracle(pair.x_ensemble())
    dm = np.diff(x - y, axis=1)
    lp = np.sum(np.linalg.norm(x[:, :-1] - y[:, :-1], axis=2) ** p, axis=1) * dt
    close = dict(rtol=1e-12, atol=1e-12)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sde, "_BLOCK_BYTES", 256)  # one to 32 steps a block: every walk crosses blocks
        np.testing.assert_allclose(verify.pair_covariation(x, y), cov, **close)
        np.testing.assert_allclose(verify.realized_covariation(pair).terminal_mean, cov.mean(axis=0), **close)
        np.testing.assert_allclose(verify.monge_certificate(pair).statistic, _isometry_oracle(x, y), **close)
        wien = verify.wiener_marginal_test(pair.x_ensemble())
        np.testing.assert_allclose([wien.details["z"][k] for k in z], list(z.values()), **close)
        bm = presets.build("model", "bm", d=pair.d)  # driftless from 0: both finite-variation parts are exactly 0
        sep = cost._separable_values(pair, bm, bm, experiments.zero_identity_spec(pair.d))
        np.testing.assert_allclose(sep, np.einsum("pkd,pkd->p", dm, dm), **close)
        np.testing.assert_allclose(cost._lp_values(pair, p), lp, **close)


def test_realized_covariation_memory_does_not_grow_with_n(traced_peak):
    rng = np.random.default_rng(8)
    peaks = []
    for n in (256, 4096):
        legs = np.cumsum(rng.standard_normal((2, n + 1, 2000, 1)), axis=1) * np.sqrt(1.0 / n)
        pair = CoupledEnsemble(grid=TimeGrid(n), x=np.swapaxes(legs[0], 0, 1), y=np.swapaxes(legs[1], 0, 1), seed=0)
        peaks.append(traced_peak(lambda: verify.realized_covariation(pair)))
        del legs, pair
    # at n = 4096 one path-major copy of a leg alone is 66 MB
    assert peaks[1] <= peaks[0] + 2**16, peaks


def test_realized_covariation_holds_one_block_beside_the_pair(traced_peak):
    # 64 pairs of 2049 knots in d = 2 (the cli-long-horizon size): one block of steps is a whole
    # 2 MiB leg, and the (steps, N, d, d) outer products of a block alone would be 4 MiB
    rng = np.random.default_rng(9)
    legs = rng.standard_normal((2, 64, 2049, 2))
    pair = CoupledEnsemble(grid=TimeGrid(2048), x=legs[0], y=legs[1], seed=0)
    peak = traced_peak(lambda: verify.realized_covariation(pair))
    assert peak <= 4 * 2**20, peak


# ---------------------------------------------------------------------------
# adaptedness probe


def test_adaptedness_synchronous_and_antithetic_pass():
    grid = TimeGrid(256)
    for c in (1.0, -1.0):
        ens = couple_brownians(CoefficientField.constant("correlation", c, 1), grid, 2000, seed=61)
        rep = verify.adaptedness_probe(ens)
        assert rep.passed
        assert rep.statistic > 0.9


def test_adaptedness_tanaka_fails_near_half():
    ens = tanaka_coupling(TimeGrid(256), 4000, seed=62)
    rep = verify.adaptedness_probe(ens)
    assert not rep.passed
    assert abs(rep.statistic - 0.5) <= 0.05


def test_adaptedness_validates_input():
    ens = couple_brownians(CoefficientField.constant("correlation", 1.0, 1), TimeGrid(16), 100, seed=63)
    with pytest.raises(DomainError):
        verify.adaptedness_probe(ens)
    big = couple_brownians(CoefficientField.constant("correlation", 1.0, 1), TimeGrid(16), 1000, seed=64)
    with pytest.raises(DomainError):
        verify.adaptedness_probe(big, k_neighbors=4)
