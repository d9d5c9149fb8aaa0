"""Tests for the coupling constructors."""

import hashlib

import numpy as np
import pytest

from pathcoupling import pathio, presets
from pathcoupling.coupling import (
    INFEASIBLE,
    UNDECIDED,
    CorrelationProcess,
    RotationProcess,
    chop_rotation,
    composed_monge,
    couple_brownians,
    couple_sdes,
    feasibility_check,
    monge_sde,
    rotation_chop,
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
    constant_diffusion,
    constant_drift,
    inverse_ito_map,
    ito_map,
    sample_brownian,
)


def _bm_model(d=1, sigma=1.0):
    return SdeModel(
        z0=np.zeros(d),
        drift=constant_drift(0.0, d),
        diffusion=constant_diffusion(sigma, d),
        label=f"bm(d={d},sigma={sigma})",
    )


def _ou_model(theta, d=1):
    def drift(k, t, prefix):
        return -theta * prefix[:, -1]

    return SdeModel(
        z0=np.zeros(d),
        drift=CoefficientField("drift", d, drift, label=f"ou({theta})"),
        diffusion=constant_diffusion(1.0, d),
        label=f"ou(theta={theta})",
    )


# ---------------------------------------------------------------------------
# correlated Brownian pairs


def test_identity_correlation_reproduces_the_driver():
    rho = CorrelationProcess.constant(1.0, d=2)
    out = couple_brownians(rho, TimeGrid(64), 50, seed=31)
    assert np.array_equal(out.x, out.y)


def test_independent_coupling_has_vanishing_cross_moment():
    rho = CorrelationProcess.constant(0.0, d=1)
    out = couple_brownians(rho, TimeGrid(64), 4000, seed=32)
    r = np.corrcoef(out.x[:, -1, 0], out.y[:, -1, 0])[0, 1]
    assert abs(r) < 4.0 / np.sqrt(4000)


def test_constant_correlation_realized_covariation():
    rho = CorrelationProcess.constant(0.7, d=1)
    out = couple_brownians(rho, TimeGrid(1024), 10_000, seed=33)
    qcov = (np.diff(out.x, axis=1) * np.diff(out.y, axis=1)).sum(axis=1)
    assert abs(qcov.mean() - 0.7) < 0.02


def test_both_marginals_have_brownian_increment_variance():
    rho = CorrelationProcess.constant(-0.4, d=1)
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
    out = couple_brownians(CorrelationProcess.constant(c), TimeGrid(256), 4000, seed=35)
    dx, dy = np.diff(out.x, axis=1), np.diff(out.y, axis=1)
    cross = np.einsum("nki,nkj->ij", dx, dy) / 4000
    assert np.abs(cross - c).max() < 0.03


def test_inadmissible_correlation_raises_with_step():
    with pytest.raises(DomainError) as err:
        couple_brownians(CorrelationProcess.constant(1.2, d=1), TimeGrid(8), 5, seed=36)
    assert err.value.step == 0

    def late_violation(k, t, xp, yp):
        return np.array([[1.5 if k >= 10 else 0.5]])

    rho = CorrelationProcess(1, late_violation, label="late")
    with pytest.raises(DomainError) as err:
        couple_brownians(rho, TimeGrid(32), 5, seed=37)
    assert err.value.step == 10


def test_path_dependent_correlation_batched():
    def rho_fn(k, t, xp, yp):
        sign = np.where(xp[:, -1, 0] > 0, 0.6, -0.6)
        return sign.reshape(-1, 1, 1)

    rho = CorrelationProcess(1, rho_fn, label="sign-switch")
    out = couple_brownians(rho, TimeGrid(64), 500, seed=38)
    assert out.x.shape == out.y.shape == (500, 65, 1)
    inc = np.diff(out.y, axis=1)
    assert abs(inc.var() * 64 - 1.0) < 0.05


def test_couple_worker_count_invariance():
    rho = CorrelationProcess.constant(0.3, d=1)
    a = couple_brownians(rho, TimeGrid(32), 41, seed=39, n_workers=1)
    b = couple_brownians(rho, TimeGrid(32), 41, seed=39, n_workers=3)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_couple_sdes_synchronous_is_identity_for_equal_models():
    model = _bm_model(sigma=2.0)
    out = couple_sdes(
        model, model, CorrelationProcess.constant(1.0, d=1), TimeGrid(64), 20, seed=40
    )
    assert np.array_equal(out.x, out.y)
    assert out.provenance["marginals"] == [model.label, model.label]


# ---------------------------------------------------------------------------
# rotation transports


def test_rotation_identity_and_antithetic_are_exact():
    drv = sample_brownian(TimeGrid(128), 2, 30, seed=41)
    same = rotation_monge(RotationProcess.identity(2), drv)
    assert np.array_equal(same.y, same.x)
    flip = rotation_monge(RotationProcess.constant(-np.eye(2)), drv)
    assert np.array_equal(flip.y, -flip.x)


def test_rotation_monge_rejects_non_orthogonal():
    drv = sample_brownian(TimeGrid(8), 2, 4, seed=42)
    with pytest.raises(DomainError) as err:
        rotation_monge(RotationProcess.constant(1.1 * np.eye(2)), drv)
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

    q = RotationProcess(2, fn, label="state-angle")
    drv = sample_brownian(TimeGrid(128), 2, 4000, seed=43)
    out = rotation_monge(q, drv)
    term = out.y[:, -1]
    cov = term.T @ term / 4000
    assert np.abs(cov - np.eye(2)).max() < 0.08
    assert np.abs(term.mean(axis=0)).max() < 4.0 / np.sqrt(4000)


def test_composed_identity_is_exact_for_power_of_two_scale():
    model = _bm_model(sigma=2.0)
    out = composed_monge(
        model, model, RotationProcess.identity(1), TimeGrid(256), 20, seed=44
    )
    assert np.array_equal(out.x, out.y)


def test_composed_identity_generic_model():
    model = _ou_model(theta=1.7)
    out = composed_monge(
        model, model, RotationProcess.identity(1), TimeGrid(256), 20, seed=45
    )
    assert np.abs(out.x - out.y).max() < 1e-10


def test_composed_scale_change_is_the_exact_linear_map():
    src = _bm_model(sigma=2.0)
    dst = _bm_model(sigma=1.0)
    out = composed_monge(src, dst, RotationProcess.identity(1), TimeGrid(128), 20, seed=46)
    assert np.array_equal(out.y, 0.5 * out.x)


# ---------------------------------------------------------------------------
# direct Monge recursion and feasibility


def test_monge_sde_equals_composed_for_constant_coefficients():
    src = _bm_model(sigma=2.0)
    out = monge_sde(
        constant_drift(0.0, 1),
        constant_diffusion(2.0, 1),
        RotationProcess.identity(1),
        src,
        TimeGrid(64),
        10,
        seed=47,
    )
    assert np.array_equal(out.x, out.y)
    assert out.provenance["kernel_residual"] == 0.0
    assert not out.provenance["kernel_condition_violated"]


def test_monge_sde_invertible_residual_is_exact_zero():
    out = monge_sde(
        constant_drift(0.1, 2),
        constant_diffusion(np.array([[1.0, 0.2], [0.0, 0.9]]), 2),
        RotationProcess.identity(2),
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
        drift=constant_drift(0.0, 2),
        diffusion=constant_diffusion(np.diag([1.0, 0.0]), 2),
        label="degenerate",
    )
    out = monge_sde(
        constant_drift(0.0, 2),
        constant_diffusion(1.0, 2),
        RotationProcess.identity(2),
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
        drift=constant_drift(0.0, 2),
        diffusion=constant_diffusion(sig, 2),
    )
    out = monge_sde(
        constant_drift([0.0, 0.3], 2),
        constant_diffusion(sig, 2),
        RotationProcess.identity(2),
        src,
        TimeGrid(20),
        6,
        seed=50,
    )
    assert out.provenance["kernel_residual"] == 0.0
    flat = out.y[:, :, 1]
    assert np.allclose(flat, 0.3 * np.linspace(0, 1, 21), atol=1e-12)


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


def test_chop_rotation_schedule_and_quantisation():
    q, achieved, quantized = chop_rotation(0.5, 64, 16)
    assert achieved == 0.5 and not quantized
    sched = np.array([q.eval(k, 0.0, None)[0, 0] for k in range(64)])
    assert set(np.unique(sched)) == {-1.0, 1.0}
    assert sched[:16].mean() == 0.5

    _, achieved, quantized = chop_rotation(0.3, 64, 16)
    assert quantized and achieved == pytest.approx(0.25)

    with pytest.raises(DimensionError):
        chop_rotation(0.5, 60, 16)
    with pytest.raises(DomainError):
        chop_rotation(1.5, 64, 16)


def test_rotation_chop_extremes_are_exact():
    same = rotation_chop(1.0, TimeGrid(32), 10, seed=53, block=16)
    assert np.array_equal(same.y, same.x)
    flip = rotation_chop(-1.0, TimeGrid(32), 10, seed=53, block=16)
    assert np.array_equal(flip.y, -flip.x)


def test_rotation_chop_mimics_target_correlation():
    out = rotation_chop(0.5, TimeGrid(256), 4000, seed=54, block=16)
    assert out.provenance["achieved_c"] == 0.5
    qcov = (np.diff(out.x, axis=1) * np.diff(out.y, axis=1)).sum(axis=1)
    assert abs(qcov.mean() - 0.5) < 0.02
    cov = np.cov(out.x[:, -1, 0], out.y[:, -1, 0])[0, 1]
    assert abs(cov - 0.5) < 4.0 * np.sqrt((1 + 0.25) / 4000)


def test_provenance_identifies_the_constructor():
    out = rotation_chop(0.5, TimeGrid(32), 4, seed=55, block=8)
    assert out.provenance["constructor"] == "rotation_chop"
    pair = couple_brownians(CorrelationProcess.constant(0.2, d=1), TimeGrid(8), 3, seed=56)
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


def test_couple_brownians_matches_a_path_major_recursion():
    c = np.array([[0.5, -0.2], [0.3, 0.4]])
    grid = TimeGrid(32)
    out = couple_brownians(CorrelationProcess.constant(c), grid, 20, seed=73)
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
        drift=constant_drift([0.1, -0.2], 2),
        diffusion=constant_diffusion([[1.0, 0.5], [0.0, 2.0]], 2),
        label="src",
    )
    sbar = np.array([[0.7, 0.0], [0.2, 1.1]])
    q = np.array([[0.0, -1.0], [1.0, 0.0]])
    grid = TimeGrid(32)
    out = monge_sde(
        constant_drift(0.3, 2), constant_diffusion(sbar, 2), RotationProcess.constant(q),
        src, grid, 15, seed=74,
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
    q = RotationProcess(2, fn, label="refilled")
    with pytest.raises(DomainError) as err:
        rotation_monge(q, sample_brownian(TimeGrid(32), 2, 4, seed=75))
    assert err.value.step == 11
    with pytest.raises(DomainError) as err:
        monge_sde(constant_drift(0.0, 2), constant_diffusion(1.0, 2), q, _bm_model(d=2),
                  TimeGrid(32), 4, seed=76)
    assert err.value.step == 11


def test_correlation_check_survives_a_refilled_correlation_buffer():
    fn = _refilled(2, 0.5 * np.eye(2), np.diag([0.5, 1.2]), from_step=7)
    with pytest.raises(DomainError) as err:
        couple_brownians(CorrelationProcess(2, fn, label="refilled"), TimeGrid(16), 4, seed=77)
    assert err.value.step == 7


def test_kernel_residual_follows_a_refilled_diffusion_buffer():
    fn = _refilled(2, np.eye(2), np.diag([1.0, 0.0]), from_step=5)
    src = SdeModel(
        z0=np.zeros(2),
        drift=constant_drift(0.0, 2),
        diffusion=CoefficientField("diffusion", 2, fn, label="refilled"),
        label="refilled",
    )
    out = monge_sde(constant_drift(0.0, 2), constant_diffusion(1.0, 2),
                    RotationProcess.identity(2), src, TimeGrid(16), 4, seed=78)
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
    rho = CorrelationProcess.constant(np.diag([0.6, -0.3]))
    pair = couple_sdes(src, dst, rho, TimeGrid(16), 4, seed=2024)
    bm = sample_brownian(TimeGrid(16), 2, 3, seed=2025)
    writers = {"csv": pathio.write_csv, "bin": pathio.write_binary}
    for name, expected in _STABLE_SHA256.items():
        stem, ext = name.split(".")
        path = tmp_path / name
        writers[ext](path, pair if stem == "pair" else bm)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == expected, name
