"""Tests for cost functionals and the closed-form optimum."""

import numpy as np
import pytest

from pathcoupling import cost, presets
from pathcoupling.coupling import CorrelationProcess, CoupledEnsemble, couple_brownians, couple_sdes
from pathcoupling.cost import CostSpec
from pathcoupling.errors import ConfigError, DimensionError, DomainError
from pathcoupling.sde import TimeGrid, ito_map, sample_brownian


def _bm(sigma, d=1):
    return presets.build("model", "bm", d=d, sigma=sigma)


def _h_zero(d=1):
    return presets.build("h", "zero", d=d)


def _g_id(d=1):
    return presets.build("g", "identity", d=d)


def _sep(h=None, g=None):
    return CostSpec.separable(h=h or _h_zero(), g=g or _g_id())


# ---------------------------------------------------------------------------
# CostSpec validation


def test_spec_rejects_bad_configurations():
    with pytest.raises(ConfigError):
        CostSpec.separable(h=_h_zero(), g=lambda v: -v)  # decreasing
    with pytest.raises(ConfigError):
        CostSpec.separable(h=_h_zero(), g=lambda v: v - 100.0)  # negative
    with pytest.raises(ConfigError):
        CostSpec.lp(0.5)
    with pytest.raises(ConfigError):
        CostSpec(kind="MAX", p=2.0)
    with pytest.raises(ConfigError):
        CostSpec(kind=cost.SEPARABLE, h=_h_zero())  # g missing


def test_spec_labels():
    assert CostSpec.lp(2).label == "lp(p=2)"
    assert _sep().label == "separable"


# ---------------------------------------------------------------------------
# Lp cost of one pair: the N = 1 coupled ensemble


def _one_pair(grid, x, y):
    """The one-pair CoupledEnsemble of two (n_steps+1, d) paths."""
    return CoupledEnsemble(grid=grid, x=np.asarray(x)[None], y=np.asarray(y)[None], seed=0)


def _lp(grid, x, y, p):
    return cost.estimate(_one_pair(grid, x, y), CostSpec.lp(p)).mean


def _const_path(grid, value, d=1):
    return np.full((grid.n_steps + 1, d), float(value))


def test_lp_trivial_values():
    grid = TimeGrid(16)
    x = _const_path(grid, 0.0)
    assert _lp(grid, x, x, p=2) == 0.0
    y = _const_path(grid, 1.0)
    assert _lp(grid, x, y, p=2) == 1.0
    ramp = grid.times.reshape(-1, 1)
    val = _lp(grid, x, ramp, p=1)
    # left endpoints give exactly 1/2 - dt/2
    assert abs(val - 0.5) <= grid.dt
    assert np.isclose(val, 0.5 - grid.dt / 2, rtol=0, atol=1e-15)


def test_lp_scaling_is_homogeneous_of_degree_p():
    grid = TimeGrid(32)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(33, 2))
    y = rng.normal(size=(33, 2))
    lam = 3.0
    for p in (1.0, 2.0, 3.5):
        base = _lp(grid, x, y, p)
        scaled = _lp(grid, lam * x, lam * y, p)
        assert np.isclose(scaled, lam**p * base, rtol=1e-12)


def test_lp_rejects_p_below_one():
    grid = TimeGrid(4)
    x = _const_path(grid, 0.0)
    with pytest.raises(ConfigError):
        _lp(grid, x, x, p=0.9)


# ---------------------------------------------------------------------------
# separable cost / estimate


def test_identical_pair_costs_zero():
    model = _bm(1.0)
    grid = TimeGrid(64)
    x = sample_brownian(grid, 1, 1, seed=3).values[0]
    assert cost.estimate(_one_pair(grid, x, x), _sep(), model, model).mean == 0.0


def test_antithetic_bracket_matches_four():
    # Y = -X, so the martingale difference is 2X and its realized bracket
    # concentrates at <2B>_1 = 4.
    model = _bm(1.0)
    grid = TimeGrid(256)
    ens = couple_sdes(model, model, CorrelationProcess.constant(-1.0, 1), grid, 10_000, seed=11)
    est = cost.estimate(ens, _sep(), model, model)
    assert est.n_pairs == 10_000
    assert abs(est.mean - 4.0) <= 3 * est.stderr


def test_estimate_lp_antithetic_mean_two():
    # E int (2B_s)^2 ds = 4 int s ds = 2, minus an O(1/n) left-endpoint bias.
    model = _bm(1.0)
    grid = TimeGrid(2048)
    ens = couple_sdes(model, model, CorrelationProcess.constant(-1.0, 1), grid, 4000, seed=12)
    est = cost.estimate(ens, CostSpec.lp(2))
    assert abs(est.mean - 2.0) <= 3 * est.stderr + 2.0 / grid.n_steps


def test_estimate_single_pair_is_degenerate():
    model = _bm(1.0)
    ens = couple_sdes(model, model, CorrelationProcess.constant(1.0, 1), TimeGrid(8), 1, seed=1)
    est = cost.estimate(ens, CostSpec.lp(2))
    assert est.degenerate and est.stderr == 0.0 and est.n_pairs == 1


def test_synchronous_identical_models_cost_exactly_zero():
    model = _bm(1.0)
    ens = couple_sdes(model, model, CorrelationProcess.constant(1.0, 1), TimeGrid(128), 64, seed=9)
    est = cost.estimate(ens, _sep(), model, model)
    assert est.mean == 0.0 and est.stderr == 0.0


def test_separable_rejects_missing_models_and_bad_h():
    model = _bm(1.0)
    ens = couple_sdes(model, model, CorrelationProcess.constant(1.0, 1), TimeGrid(8), 4, seed=2)
    with pytest.raises(ConfigError):
        cost.estimate(ens, _sep())
    bad = CostSpec.separable(h=lambda paths: np.zeros(3), g=_g_id())
    with pytest.raises(DimensionError):
        cost.estimate(ens, bad, model, model)


# ---------------------------------------------------------------------------
# closed-form optimum


def test_closed_form_d1_sigma_2_vs_1():
    src, dst = _bm(2.0), _bm(1.0)
    probe = ito_map(src, sample_brownian(TimeGrid(256), 1, 500, seed=21))
    value, q_star = cost.closed_form_optimal(src, dst, _sep(), probe)
    # integrand is constant: 4 + 1 - 2*2*1 = 1, summed exactly over a
    # power-of-two grid
    assert value.mean == 1.0 and value.stderr == 0.0
    assert np.allclose(q_star.eval(0, 0.0, probe.values[:, :1]), [[1.0]])


def test_closed_form_d1_attained_by_synchronous_coupling():
    src, dst = _bm(2.0), _bm(1.0)
    probe = ito_map(src, sample_brownian(TimeGrid(256), 1, 500, seed=22))
    value, _ = cost.closed_form_optimal(src, dst, _sep(), probe)
    opt = couple_sdes(src, dst, CorrelationProcess.constant(1.0, 1), TimeGrid(256), 4000, seed=23)
    est = cost.estimate(opt, _sep(), src, dst)
    assert abs(est.mean - value.mean) <= 3 * np.hypot(est.stderr, value.stderr)


def test_closed_form_d2_diagonal():
    src = presets.build("model", "const-matrix", d=2, sigma=[[2.0, 0.0], [0.0, 1.0]])
    dst = _bm(1.0, d=2)
    probe = ito_map(src, sample_brownian(TimeGrid(128), 2, 200, seed=31))
    spec = CostSpec.separable(h=presets.build("h", "zero", d=2), g=_g_id())
    value, q_star = cost.closed_form_optimal(src, dst, spec, probe)
    # (4+1) + 2 - 2*(2+1) = 1
    assert abs(value.mean - 1.0) < 1e-12
    q = q_star.eval(0, 0.0, probe.values[:, :1])
    assert np.allclose(q, np.eye(2), atol=1e-12)


def test_closed_form_identical_models_is_zero():
    src = presets.build("model", "const-matrix", d=2, sigma=[[1.5, 0.0], [0.0, 0.5]])
    probe = ito_map(src, sample_brownian(TimeGrid(64), 2, 100, seed=41))
    spec = CostSpec.separable(h=presets.build("h", "zero", d=2), g=_g_id())
    value, q_star = cost.closed_form_optimal(src, src, spec, probe)
    assert value.mean == 0.0
    assert np.allclose(q_star.eval(3, 0.0, probe.values[:, :4]), np.eye(2), atol=1e-12)


def test_closed_form_with_path_dependent_source():
    # source with state-dependent volatility: the per-path rotation is
    # still scalar 1 in d=1 and the value matches a direct Riemann sum
    # of (sigma(x) - 1)^2 along the probes.
    src = presets.build("model", "gbm-bounded", d=1, sigma=1.0)
    dst = _bm(1.0)
    grid = TimeGrid(128)
    probe = ito_map(src, sample_brownian(grid, 1, 300, seed=51))
    value, q_star = cost.closed_form_optimal(src, dst, _sep(), probe)
    x = probe.values
    u = x[:, :-1, 0] ** 2
    sig = 1.0 + u / (1.0 + u)
    expected = ((sig - 1.0) ** 2).sum(axis=1) * grid.dt
    assert np.isclose(value.mean, expected.mean(), rtol=1e-12)
    q = q_star.eval(5, 5 * grid.dt, x[:, :6])
    assert np.allclose(q, 1.0)


def test_closed_form_rejects_path_dependent_target():
    src = _bm(1.0)
    dst = presets.build("model", "gbm-bounded", d=1, sigma=1.0)
    probe = sample_brownian(TimeGrid(32), 1, 50, seed=61)
    with pytest.raises(DomainError) as err:
        cost.closed_form_optimal(src, dst, _sep(), probe)
    assert "step" in str(err.value)


def test_closed_form_rejects_lp_spec_and_bad_step():
    src, dst = _bm(1.0), _bm(1.0)
    probe = sample_brownian(TimeGrid(16), 1, 10, seed=71)
    with pytest.raises(ConfigError):
        cost.closed_form_optimal(src, dst, CostSpec.lp(2), probe)
    _, q_star = cost.closed_form_optimal(src, dst, _sep(), probe)
    with pytest.raises(DomainError):
        q_star.eval(16, 1.0, probe.values)


# ---------------------------------------------------------------------------
# optimality gaps


def test_gap_report_orders_candidates_correctly():
    model = _bm(1.0)
    grid = TimeGrid(256)
    probe = ito_map(model, sample_brownian(grid, 1, 200, seed=81))
    value, _ = cost.closed_form_optimal(model, model, _sep(), probe)
    assert value.mean == 0.0

    candidates = [
        couple_sdes(model, model, CorrelationProcess.constant(c, 1), grid, 3000, seed=82 + i)
        for i, c in enumerate((1.0, 0.5, 0.0, -1.0))
    ]
    report = cost.optimality_gap(candidates, _sep(), model, model, value)
    gaps = [e.gap for e in report.entries]
    # brackets are 2 - 2c: 0, 1, 2, 4
    assert np.allclose(gaps, [0.0, 1.0, 2.0, 4.0], atol=0.05)
    assert not report.any_flagged
    assert all(e.gap >= -3 * e.combined_stderr for e in report.entries)


def test_gap_rejects_wrong_marginals():
    model = _bm(1.0)
    grid = TimeGrid(32)
    probe = ito_map(model, sample_brownian(grid, 1, 50, seed=91))
    value, _ = cost.closed_form_optimal(model, model, _sep(), probe)
    stranger = couple_brownians(CorrelationProcess.constant(1.0, 1), grid, 10, seed=92)
    with pytest.raises(DomainError):
        cost.optimality_gap([stranger], _sep(), model, model, value)
