"""Tests for the coupling constructors."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathcoupling import coupling, pathio, presets, sde, verify
from pathcoupling.coupling import (
    INFEASIBLE,
    UNDECIDED,
    chop_rotation,
    composed_monge,
    couple_brownians,
    couple_sdes,
    feasibility_check,
    monge_sde,
    rotation_monge,
    tanaka_coupling,
)
from pathcoupling.errors import DimensionError, DomainError
from pathcoupling.linalg import pinv_and_null, psd_sqrt
from pathcoupling.sde import (
    CoefficientField,
    PathEnsemble,
    SdeModel,
    TimeGrid,
    brownian_increments,
    inverse_ito_map,
    ito_map,
    sample_brownian,
)


def _bm_model(d=1, sigma=1.0):
    return SdeModel(
        z0=np.zeros(d),
        drift=CoefficientField.constant("drift", 0.0, d),
        diffusion=CoefficientField.constant("diffusion", sigma, d),
        label=f"bm(d={d},sigma={sigma})",
    )


def _ou_model(theta, d=1):
    def drift(k, t, prefix):
        return -theta * prefix[:, -1]

    return SdeModel(
        z0=np.zeros(d),
        drift=CoefficientField("drift", d, drift, label=f"ou({theta})"),
        diffusion=CoefficientField.constant("diffusion", 1.0, d),
        label=f"ou(theta={theta})",
    )


# ---------------------------------------------------------------------------
# correlated Brownian pairs


def test_identity_correlation_reproduces_the_driver():
    rho = CoefficientField.constant("correlation", 1.0, d=2)
    out = couple_brownians(rho, TimeGrid(64), 50, seed=31)
    assert np.array_equal(out.x, out.y)


def test_independent_coupling_has_vanishing_cross_moment():
    rho = CoefficientField.constant("correlation", 0.0, d=1)
    out = couple_brownians(rho, TimeGrid(64), 4000, seed=32)
    r = np.corrcoef(out.x[:, -1, 0], out.y[:, -1, 0])[0, 1]
    assert abs(r) < 4.0 / np.sqrt(4000)


def test_constant_correlation_realized_covariation():
    rho = CoefficientField.constant("correlation", 0.7, d=1)
    out = couple_brownians(rho, TimeGrid(1024), 10_000, seed=33)
    qcov = (np.diff(out.x, axis=1) * np.diff(out.y, axis=1)).sum(axis=1)
    assert abs(qcov.mean() - 0.7) < 0.02


def test_both_marginals_have_brownian_increment_variance():
    rho = CoefficientField.constant("correlation", -0.4, d=1)
    grid = TimeGrid(128)
    out = couple_brownians(rho, grid, 2000, seed=34)
    for side in (out.x, out.y):
        inc = np.diff(side, axis=1)
        assert abs(inc.var() / grid.dt - 1.0) < 0.02
    # and the cross-correlation of increments is the prescribed rho
    r = np.corrcoef(
        np.diff(out.x, axis=1).ravel(), np.diff(out.y, axis=1).ravel()
    )[0, 1]
    assert abs(r + 0.4) < 0.02


def test_matrix_correlation_cross_covariation():
    theta = np.pi / 6
    c = 0.8 * np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    out = couple_brownians(CoefficientField.constant("correlation", c), TimeGrid(256), 4000, seed=35)
    dx, dy = np.diff(out.x, axis=1), np.diff(out.y, axis=1)
    cross = np.einsum("nki,nkj->ij", dx, dy) / 4000
    assert np.abs(cross - c).max() < 0.03


def test_inadmissible_correlation_raises_with_step():
    with pytest.raises(DomainError) as err:
        couple_brownians(CoefficientField.constant("correlation", 1.2, d=1), TimeGrid(8), 5, seed=36)
    assert err.value.step == 0

    def late_violation(k, t, xp, yp):
        return np.array([[1.5 if k >= 10 else 0.5]])

    rho = CoefficientField("correlation", 1, late_violation, label="late")
    with pytest.raises(DomainError) as err:
        couple_brownians(rho, TimeGrid(32), 5, seed=37)
    assert err.value.step == 10


def test_path_dependent_correlation_batched():
    def rho_fn(k, t, xp, yp):
        sign = np.where(xp[:, -1, 0] > 0, 0.6, -0.6)
        return sign.reshape(-1, 1, 1)

    rho = CoefficientField("correlation", 1, rho_fn, label="sign-switch")
    out = couple_brownians(rho, TimeGrid(64), 500, seed=38)
    assert out.x.shape == out.y.shape == (500, 65, 1)
    inc = np.diff(out.y, axis=1)
    assert abs(inc.var() * 64 - 1.0) < 0.05


def test_couple_worker_count_invariance():
    rho = CoefficientField.constant("correlation", 0.3, d=1)
    a = couple_brownians(rho, TimeGrid(32), 41, seed=39, n_workers=1)
    b = couple_brownians(rho, TimeGrid(32), 41, seed=39, n_workers=3)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


@pytest.mark.parametrize("constructor", ["couple_sdes", "composed_monge", "monge_sde", "tanaka_coupling", "rotation_monge"])
def test_constructors_are_byte_identical_across_worker_counts(constructor):
    grid, n_pairs, seed = TimeGrid(16), 37, 44
    d = 1 if constructor in ("tanaka_coupling", "rotation_monge") else 2
    src = presets.build("model", "gbm-bounded", d=d, sigma=0.5)
    dst = presets.build("model", "ou", d=d, theta=2.0, mean=0.5)
    rho, q = CoefficientField.constant("correlation", 0.3, d=d), presets.build("rotation", "rotation-by-state", d=2)
    build = {
        "couple_sdes": lambda w: couple_sdes(src, dst, rho, grid, n_pairs, seed, n_workers=w),
        "composed_monge": lambda w: composed_monge(src, dst, q, grid, n_pairs, seed, n_workers=w),
        "monge_sde": lambda w: monge_sde(dst.drift, dst.diffusion, q, src, grid, n_pairs, seed, n_workers=w),
        "tanaka_coupling": lambda w: tanaka_coupling(grid, n_pairs, seed, n_workers=w),
        "rotation_monge": lambda w: _chop(0.5, grid, n_pairs, seed, n_workers=w),
    }[constructor]
    serial = build(1)
    for n_workers in (2, 4):
        pair = build(n_workers)
        assert pair.x.tobytes() == serial.x.tobytes() and pair.y.tobytes() == serial.y.tobytes()


def test_couple_sdes_synchronous_is_identity_for_equal_models():
    model = _bm_model(sigma=2.0)
    out = couple_sdes(
        model, model, CoefficientField.constant("correlation", 1.0, d=1), TimeGrid(64), 20, seed=40
    )
    assert np.array_equal(out.x, out.y)
    assert out.provenance["marginals"] == [model.label, model.label]


# ---------------------------------------------------------------------------
# rotation transports


def test_rotation_identity_and_antithetic_are_exact():
    drv = sample_brownian(TimeGrid(128), 2, 30, seed=41)
    same = rotation_monge(CoefficientField.constant("rotation", 1.0, 2, "identity"), drv)
    assert np.array_equal(same.y, same.x)
    flip = rotation_monge(CoefficientField.constant("rotation", -np.eye(2)), drv)
    assert np.array_equal(flip.y, -flip.x)


def test_rotation_monge_rejects_non_orthogonal():
    drv = sample_brownian(TimeGrid(8), 2, 4, seed=42)
    with pytest.raises(DomainError) as err:
        rotation_monge(CoefficientField.constant("rotation", 1.1 * np.eye(2)), drv)
    assert err.value.step == 0


def test_state_dependent_rotation_preserves_terminal_covariance():
    def fn(k, t, prefix):
        theta = prefix[:, -1, 0]
        c, s = np.cos(theta), np.sin(theta)
        out = np.empty((theta.shape[0], 2, 2))
        out[:, 0, 0] = c
        out[:, 0, 1] = -s
        out[:, 1, 0] = s
        out[:, 1, 1] = c
        return out

    q = CoefficientField("rotation", 2, fn, label="state-angle")
    drv = sample_brownian(TimeGrid(128), 2, 4000, seed=43)
    out = rotation_monge(q, drv)
    term = out.y[:, -1]
    cov = term.T @ term / 4000
    assert np.abs(cov - np.eye(2)).max() < 0.08
    assert np.abs(term.mean(axis=0)).max() < 4.0 / np.sqrt(4000)


def test_composed_identity_is_exact_for_power_of_two_scale():
    model = _bm_model(sigma=2.0)
    out = composed_monge(
        model, model, CoefficientField.constant("rotation", 1.0, 1, "identity"), TimeGrid(256), 20, seed=44
    )
    assert np.array_equal(out.x, out.y)


def test_composed_identity_generic_model():
    model = _ou_model(theta=1.7)
    out = composed_monge(
        model, model, CoefficientField.constant("rotation", 1.0, 1, "identity"), TimeGrid(256), 20, seed=45
    )
    assert np.abs(out.x - out.y).max() < 1e-10


def test_composed_scale_change_is_the_exact_linear_map():
    src = _bm_model(sigma=2.0)
    dst = _bm_model(sigma=1.0)
    identity = CoefficientField.constant("rotation", 1.0, 1, "identity")
    out = composed_monge(src, dst, identity, TimeGrid(128), 20, seed=46)
    assert np.array_equal(out.y, 0.5 * out.x)


# derandomized: the examples are fixed per test, so a run fails the same way every time
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


@PROPERTY
@given(d=st.integers(1, 3), per_path=st.booleans(), n_steps=st.integers(1, 32), seed=st.integers(0, 2**32 - 1))
def test_rotation_monge_keeps_the_norm_of_every_increment(d, per_path, n_steps, seed):
    # orthogonal Q from the QR factors of random matrices, one per step (and per pair)
    rng = np.random.default_rng(seed)
    qs = np.linalg.qr(rng.standard_normal((n_steps, 5 if per_path else 1, d, d)))[0]
    q = CoefficientField("rotation", d, lambda k, t, xp: qs[k] if per_path else qs[k, 0])
    pair = rotation_monge(q, sample_brownian(TimeGrid(n_steps), d, 5, seed=seed))
    dx, dy = (np.linalg.norm(np.diff(v, axis=1), axis=2) for v in (pair.x, pair.y))
    # each difference of knots rounds relative to the knots' size, not to the increment's
    rounding = 16 * np.finfo(float).eps * (1.0 + np.abs(pair.x).max() + np.abs(pair.y).max())
    assert np.abs(dy - dx).max() <= rounding
    assert verify.monge_certificate(pair).passed


# ---------------------------------------------------------------------------
# direct Monge recursion and feasibility


def test_monge_sde_equals_composed_for_constant_coefficients():
    src = _bm_model(sigma=2.0)
    out = monge_sde(
        CoefficientField.constant("drift", 0.0, 1),
        CoefficientField.constant("diffusion", 2.0, 1),
        CoefficientField.constant("rotation", 1.0, 1, "identity"),
        src,
        TimeGrid(64),
        10,
        seed=47,
    )
    assert np.array_equal(out.x, out.y)
    assert out.provenance["kernel_residual"] == 0.0
    assert not out.provenance["kernel_condition_violated"]


def test_monge_sde_holds_no_driver_beside_its_two_legs(traced_peak):
    n_pairs, n = 2000, 1024
    leg = n_pairs * (n + 1) * 8
    src = presets.build("model", "ou", d=1, theta=1.0)
    peak = traced_peak(lambda: monge_sde(
        CoefficientField.constant("drift", 0.0, 1), CoefficientField.constant("diffusion", 0.5, 1),
        CoefficientField.constant("rotation", 1.0, 1, "identity"), src, TimeGrid(n), n_pairs, seed=3))
    # X and T; a Brownian driver kept through the transport loop would be a third leg
    assert peak <= 2 * leg + 2 * sde._BLOCK_BYTES, peak / leg


def test_composed_monge_holds_one_recovered_driver_beside_its_pair(traced_peak):
    n_pairs, n = 400, 1024
    pair = 2 * n_pairs * (n + 1) * 2 * 8
    src = presets.build("model", "gbm-bounded", d=2)
    dst = presets.build("model", "ou", d=2, theta=2.0, mean=0.5)
    q = presets.build("rotation", "rotation-by-state", d=2)
    peak = traced_peak(lambda: composed_monge(src, dst, q, TimeGrid(n), n_pairs, seed=3))
    # X over the sampled driver, the recovered driver W that the rotation reads, and Y over the rotated
    # driver; a leg of its own for X, U or Y, as each stage once had, would lift the peak to 2.5x the pair
    assert peak <= 1.6 * pair + 2 * sde._BLOCK_BYTES, peak / pair


def test_monge_sde_invertible_residual_is_exact_zero():
    out = monge_sde(
        CoefficientField.constant("drift", 0.1, 2),
        CoefficientField.constant("diffusion", np.array([[1.0, 0.2], [0.0, 0.9]]), 2),
        CoefficientField.constant("rotation", 1.0, 2, "identity"),
        _bm_model(d=2, sigma=1.5),
        TimeGrid(32),
        8,
        seed=48,
    )
    assert out.provenance["kernel_residual"] == 0.0


def test_monge_sde_obstructed_pair_reports_unit_residual():
    # Source kernel e2 cannot be absorbed: the target diffusion is full rank.
    src = SdeModel(
        z0=np.zeros(2),
        drift=CoefficientField.constant("drift", 0.0, 2),
        diffusion=CoefficientField.constant("diffusion", np.diag([1.0, 0.0]), 2),
        label="degenerate",
    )
    out = monge_sde(
        CoefficientField.constant("drift", 0.0, 2),
        CoefficientField.constant("diffusion", 1.0, 2),
        CoefficientField.constant("rotation", 1.0, 2, "identity"),
        src,
        TimeGrid(16),
        5,
        seed=49,
    )
    assert out.provenance["kernel_residual"] == 1.0
    assert out.provenance["kernel_condition_violated"]


def test_monge_sde_aligned_degenerate_pair_is_clean():
    # Both sides share the kernel, so the transport closes on itself and
    # the flat component of the target is purely deterministic.
    sig = np.diag([1.0, 0.0])
    src = SdeModel(
        z0=np.zeros(2),
        drift=CoefficientField.constant("drift", 0.0, 2),
        diffusion=CoefficientField.constant("diffusion", sig, 2),
    )
    out = monge_sde(
        CoefficientField.constant("drift", [0.0, 0.3], 2),
        CoefficientField.constant("diffusion", sig, 2),
        CoefficientField.constant("rotation", 1.0, 2, "identity"),
        src,
        TimeGrid(20),
        6,
        seed=50,
    )
    assert out.provenance["kernel_residual"] == 0.0
    flat = out.y[:, :, 1]
    assert np.allclose(flat, 0.3 * np.linspace(0, 1, 21), atol=1e-12)


def test_monge_sde_refuses_swapped_target_fields_before_it_draws_a_path(monkeypatch):
    bm = _bm_model(d=2)
    identity = CoefficientField.constant("rotation", 1.0, 2, "identity")
    monkeypatch.setattr(coupling, "sample_brownian", None)  # a draw would fail with a TypeError
    with pytest.raises(DimensionError) as err:
        monge_sde(bm.diffusion, bm.drift, identity, bm, TimeGrid(8), 3, seed=1)
    assert str(err.value) == "a model takes a drift and a diffusion, got a diffusion and a drift"
    with pytest.raises(DimensionError, match="rotation dim 1 does not match src dim 2"):
        monge_sde(bm.drift, bm.diffusion, CoefficientField.constant("rotation", 1.0, 1), bm, TimeGrid(8), 3, seed=1)


def test_feasibility_verdicts():
    report = feasibility_check([np.diag([1.0, 0.0])], [np.eye(2)])
    assert report.verdict == INFEASIBLE
    assert report.src_kernel_min == 1 and report.dst_kernel_max == 0

    report = feasibility_check([np.eye(2)], [np.diag([1.0, 0.0])])
    assert report.verdict == UNDECIDED

    report = feasibility_check([np.eye(2), np.diag([2.0, 3.0])], [np.eye(2)])
    assert report.verdict == UNDECIDED

    with pytest.raises(DimensionError):
        feasibility_check([], [np.eye(2)])


# ---------------------------------------------------------------------------
# named demonstrations


def test_tanaka_increments_have_unit_modulus_ratio():
    out = tanaka_coupling(TimeGrid(256), 500, seed=51)
    dx, dy = np.diff(out.x, axis=1), np.diff(out.y, axis=1)
    # dx = +/- dy at construction; re-extracting increments from the
    # accumulated paths leaves only rounding-level deviations.
    assert np.allclose(np.abs(dx), np.abs(dy), rtol=0.0, atol=1e-13)
    # x is Brownian as well: terminal variance close to 1
    assert abs(out.x[:, -1, 0].var() - 1.0) < 0.15
    # orientation: the second path is the simulated Brownian driver
    assert abs(np.corrcoef(out.x[:, -1, 0], out.y[:, -1, 0])[0, 1]) < 4.0 / np.sqrt(500)


def test_tanaka_sign_convention_at_zero():
    # sign(0) must count as -1: paths start at 0, so step 0 always uses it.
    out = tanaka_coupling(TimeGrid(4), 50, seed=52)
    assert np.array_equal(out.x[:, 1], -out.y[:, 1])


def _chop(c, grid, n_pairs, seed, n_workers=1):
    """The chopped coupling: the rotation integral of a Brownian driver by the chop schedule."""
    return rotation_monge(chop_rotation(c), sample_brownian(grid, 1, n_pairs, seed, n_workers=n_workers))


def _schedule(c, n):
    """The chop's first n values, each checked to be a (1, 1) array."""
    q = chop_rotation(c)
    values = [q.eval(k, k / n, None) for k in range(n)]
    assert all(v.shape == (1, 1) for v in values)
    return np.array([v[0, 0] for v in values])


def test_chop_rotation_schedule_and_quantisation():
    # c = 0.5 repeats +1, +1, -1, +1; c = 0 alternates from +1, the sign at a tie
    assert _schedule(0.5, 8).tolist() == [1.0, 1.0, -1.0, 1.0, 1.0, 1.0, -1.0, 1.0]
    assert _schedule(0.0, 6).tolist() == [1.0, -1.0] * 3
    # c = 0.3 is not quantised: the mean of the first n steps is within 1/n of it
    for n in (256, 1024, 4096):
        assert abs(_schedule(0.3, n).mean() - 0.3) <= 1.0 / n
    with pytest.raises(DomainError):
        chop_rotation(1.5)


@PROPERTY
@given(c=st.floats(-1.0, 1.0), n=st.integers(1, 4096))
@example(c=1.0, n=4096)
@example(c=-1.0, n=4096)
@example(c=1.0 - 1e-15, n=4096)
@example(c=-1.0 + 1e-15, n=4096)
@example(c=np.nextafter(1.0, 0.0), n=4096)
@example(c=np.nextafter(-1.0, 0.0), n=4096)
@example(c=0.0, n=4096)
def test_the_chop_stays_within_one_step_of_c(c, n):
    q = _schedule(c, n)
    assert set(np.unique(q)) <= {-1.0, 1.0}
    # exact in exact arithmetic; h and the products round once each, which moves a sum by under n 2^-50
    assert np.abs(np.arange(1, n + 1) * c - np.cumsum(q)).max() <= 1.0 + n * 2.0**-50
    if abs(c) == 1.0:
        assert np.all(q == c)


def test_one_chop_serves_every_grid():
    # a function of the step alone: no grid to outrun and no block to divide it
    q = chop_rotation(0.5)
    for n in (128, 256, 1000):
        pair = rotation_monge(q, sample_brownian(TimeGrid(n), 1, 3, seed=1))
        signs = np.sign(np.diff(pair.x, axis=1) * np.diff(pair.y, axis=1))[..., 0]
        assert np.array_equal(signs, np.broadcast_to(_schedule(0.5, n), signs.shape))


def test_a_rotation_that_stops_being_orthogonal_names_the_kernel_and_its_step():
    half = CoefficientField("rotation", 1, lambda k, t, xp: np.array([[1.0 if k < 3 else 0.5]]), label="half")
    with pytest.raises(DomainError) as err:
        rotation_monge(half, sample_brownian(TimeGrid(8), 1, 4, seed=2))
    assert err.value.step == 3
    assert str(err.value) == "rotation_monge of 'half': rotation 'half': not orthogonal (defect 7.500e-01) (at step 3)"


def test_rotation_chop_extremes_are_exact():
    same = _chop(1.0, TimeGrid(32), 10, seed=53)
    assert np.array_equal(same.y, same.x)
    flip = _chop(-1.0, TimeGrid(32), 10, seed=53)
    assert np.array_equal(flip.y, -flip.x)


def test_rotation_chop_mimics_target_correlation():
    out = _chop(0.5, TimeGrid(256), 4000, seed=54)
    qcov = (np.diff(out.x, axis=1) * np.diff(out.y, axis=1)).sum(axis=1)
    assert abs(qcov.mean() - 0.5) < 0.02
    cov = np.cov(out.x[:, -1, 0], out.y[:, -1, 0])[0, 1]
    assert abs(cov - 0.5) < 4.0 * np.sqrt((1 + 0.25) / 4000)


def test_provenance_identifies_the_constructor():
    out = _chop(0.5, TimeGrid(32), 4, seed=55)
    assert out.provenance == {"constructor": "rotation_monge", "rotation": "chop(c=0.5)",
                              "marginals": ["wiener(d=1)", "wiener(d=1)"], "n_pairs": 4, "n_steps": 32, "seed": 55}
    pair = couple_brownians(CoefficientField.constant("correlation", 0.2, d=1), TimeGrid(8), 3, seed=56)
    assert pair.provenance["constructor"] == "couple_brownians"
    assert pair.provenance["marginals"] == ["wiener(d=1)", "wiener(d=1)"]


# ---------------------------------------------------------------------------
# storage layout, per-step invariants and stable output bytes


def _path_major(ens):
    return PathEnsemble(grid=ens.grid, values=np.ascontiguousarray(ens.values), seed=ens.seed)


def _time_major(ens):
    tm = np.ascontiguousarray(np.swapaxes(ens.values, 0, 1)).swapaxes(0, 1)
    return PathEnsemble(grid=ens.grid, values=tm, seed=ens.seed)


def _same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("preset", ["rotation-by-state", "angle"])
def test_rotation_monge_is_byte_identical_across_input_layouts(preset):
    q = presets.build("rotation", preset, d=2, **({"theta": 0.4} if preset == "angle" else {}))
    drv = sample_brownian(TimeGrid(64), 2, 30, seed=71)
    a = rotation_monge(q, _path_major(drv))
    b = rotation_monge(q, _time_major(drv))
    assert _same_bytes(a.x, b.x) and _same_bytes(a.y, b.y)


def test_composed_monge_matches_the_kernel_chain_on_path_major_arrays():
    src = presets.build("model", "gbm-bounded", d=2)
    dst = presets.build("model", "ou", d=2, theta=2.0, mean=0.5)
    q = presets.build("rotation", "rotation-by-state", d=2)
    grid = TimeGrid(64)
    out = composed_monge(src, dst, q, grid, 25, seed=72)
    x = ito_map(src, _path_major(sample_brownian(grid, 2, 25, seed=72)))
    w = inverse_ito_map(src, _path_major(x))
    u = rotation_monge(q, _path_major(w)).y_ensemble()
    y = ito_map(dst, _path_major(u))
    assert _same_bytes(out.x, x.values) and _same_bytes(out.y, y.values)


def test_couple_sdes_matches_the_ito_maps_of_its_brownian_pair_on_path_major_arrays():
    src = presets.build("model", "gbm-bounded", d=2)
    dst = presets.build("model", "ou", d=2, theta=2.0, mean=0.5)
    rho = CoefficientField.constant("correlation", np.array([[0.5, -0.2], [0.3, 0.4]]))
    grid = TimeGrid(64)
    out = couple_sdes(src, dst, rho, grid, 25, seed=75)
    pair = couple_brownians(rho, grid, 25, seed=75)
    x = ito_map(src, _path_major(pair.x_ensemble()))
    y = ito_map(dst, _path_major(pair.y_ensemble()))
    assert _same_bytes(out.x, x.values) and _same_bytes(out.y, y.values)


@pytest.mark.parametrize("per_path", [False, True], ids=["shared", "per-path"])
@pytest.mark.parametrize("d", [1, 2])
def test_the_public_kernels_leave_the_bytes_of_their_argument_unchanged(d, per_path):
    # only a driver that a constructor drew itself is written over by its Itô map
    model = presets.build("model", "gbm-bounded", d=d) if per_path else _bm_model(d=d, sigma=1.5)
    if not per_path:
        q = CoefficientField.constant("rotation", -1.0, d)
    elif d == 2:
        q = presets.build("rotation", "rotation-by-state", d=2)
    else:
        q = CoefficientField("rotation", 1, lambda k, t, xp: np.where(xp[:, -1:] > 0.0, 1.0, -1.0), label="sign(x)")
    drv = sample_brownian(TimeGrid(32), d, 20, seed=76)
    drv_bytes = drv.values.tobytes()
    x = ito_map(model, drv)
    x_bytes = x.values.tobytes()
    inverse_ito_map(model, x)
    rotation_monge(q, drv)
    assert drv.values.tobytes() == drv_bytes and x.values.tobytes() == x_bytes


def test_couple_brownians_matches_a_path_major_recursion():
    c = np.array([[0.5, -0.2], [0.3, 0.4]])
    grid = TimeGrid(32)
    out = couple_brownians(CoefficientField.constant("correlation", c), grid, 20, seed=73)
    db, dw = np.ascontiguousarray(brownian_increments(grid, 2, 20, seed=73, streams=2))
    root = psd_sqrt(np.eye(2) - c.T @ c, clamp_tol=1e-6)
    x = np.zeros((20, 33, 2))
    y = np.zeros((20, 33, 2))
    for k in range(32):
        x[:, k + 1] = x[:, k] + db[:, k]
        y[:, k + 1] = y[:, k] + (db[:, k] @ c + dw[:, k] @ root.T)
    assert _same_bytes(out.x, x) and _same_bytes(out.y, y)


def test_monge_sde_matches_a_path_major_recursion():
    src = SdeModel(
        z0=np.zeros(2),
        drift=CoefficientField.constant("drift", [0.1, -0.2], 2),
        diffusion=CoefficientField.constant("diffusion", [[1.0, 0.5], [0.0, 2.0]], 2),
        label="src",
    )
    sbar = np.array([[0.7, 0.0], [0.2, 1.1]])
    q = np.array([[0.0, -1.0], [1.0, 0.0]])
    grid = TimeGrid(32)
    out = monge_sde(
        CoefficientField.constant("drift", 0.3, 2), CoefficientField.constant("diffusion", sbar, 2),
        CoefficientField.constant("rotation", q), src, grid, 15, seed=74,
    )
    x = ito_map(src, _path_major(sample_brownian(grid, 2, 15, seed=74))).values
    assert _same_bytes(out.x, x)
    pinv, _ = pinv_and_null(src.diffusion.eval(0, 0.0, None))
    ty = np.zeros((15, 33, 2))
    for k in range(32):
        dm = x[:, k + 1] - x[:, k] - src.drift.eval(0, 0.0, None) * grid.dt
        ty[:, k + 1] = ty[:, k] + (0.3 * grid.dt + ((dm @ pinv.T) @ q.T) @ sbar.T)
    assert _same_bytes(out.y, ty)


def _refilled(d, good, bad, from_step):
    """A field that refills one (d, d) buffer in place: ``good`` then ``bad``."""
    buf = np.empty((d, d))

    def fn(k, t, *prefixes):
        buf[:] = good if k < from_step else bad
        return buf

    return fn


def test_orthogonality_check_survives_a_refilled_rotation_buffer():
    fn = _refilled(2, np.eye(2), np.diag([1.0, 1.1]), from_step=11)
    q = CoefficientField("rotation", 2, fn, label="refilled")
    with pytest.raises(DomainError) as err:
        rotation_monge(q, sample_brownian(TimeGrid(32), 2, 4, seed=75))
    assert err.value.step == 11
    with pytest.raises(DomainError) as err:
        monge_sde(CoefficientField.constant("drift", 0.0, 2), CoefficientField.constant("diffusion", 1.0, 2), q,
                  _bm_model(d=2), TimeGrid(32), 4, seed=76)
    assert err.value.step == 11


def test_correlation_check_survives_a_refilled_correlation_buffer():
    fn = _refilled(2, 0.5 * np.eye(2), np.diag([0.5, 1.2]), from_step=7)
    with pytest.raises(DomainError) as err:
        couple_brownians(CoefficientField("correlation", 2, fn, label="refilled"), TimeGrid(16), 4, seed=77)
    assert err.value.step == 7


def test_kernel_residual_follows_a_refilled_diffusion_buffer():
    fn = _refilled(2, np.eye(2), np.diag([1.0, 0.0]), from_step=5)
    src = SdeModel(
        z0=np.zeros(2),
        drift=CoefficientField.constant("drift", 0.0, 2),
        diffusion=CoefficientField("diffusion", 2, fn, label="refilled"),
        label="refilled",
    )
    out = monge_sde(CoefficientField.constant("drift", 0.0, 2), CoefficientField.constant("diffusion", 1.0, 2),
                    CoefficientField.constant("rotation", 1.0, 2, "identity"), src, TimeGrid(16), 4, seed=78)
    assert out.provenance["kernel_condition_violated"]
    assert out.provenance["kernel_residual_step"] == 5


# sha256 of files written from these inputs before the time-major storage
# change; the serialized bytes must not depend on the in-memory layout
_STABLE_SHA256 = {
    "pair.csv": "f6ae1b6c9f75d44ffc0a718b8c0a30e743337f16fdeb5a0b1570d45a3c2a8e2b",
    "pair.bin": "3919b941904d63180d8e04d0c59c1491de73584e6443395e0deae7d424318e90",
    "bm.csv": "bbee1dd9dee9d03a8d07f3d3d15e57bafbab76ac2b7dc5b77e20af7cce721f8e",
    "bm.bin": "c367eab3e4a2386d6f2ff2e63f5f5832b60ebcf99e073410d43a1aae315e9f10",
}


def test_written_bytes_are_stable(tmp_path):
    # a diagonal correlation and unit diffusions keep every product exact,
    # so the recorded digests do not depend on the BLAS build
    src = presets.build("model", "ou", d=2, theta=1.0, z0=1.0)
    dst = presets.build("model", "ou", d=2, theta=2.0, mean=0.5)
    rho = CoefficientField.constant("correlation", np.diag([0.6, -0.3]))
    pair = couple_sdes(src, dst, rho, TimeGrid(16), 4, seed=2024)
    bm = sample_brownian(TimeGrid(16), 2, 3, seed=2025)
    writers = {"csv": pathio.write_csv, "bin": pathio.write_binary}
    for name, expected in _STABLE_SHA256.items():
        stem, ext = name.split(".")
        path = tmp_path / name
        writers[ext](path, pair if stem == "pair" else bm)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == expected, name
