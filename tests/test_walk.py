"""The step kernels' outputs, byte for byte, and where a failing step is reported."""

import hashlib

import numpy as np
import pytest

from pathcoupling import cost, presets, sde
from pathcoupling.coupling import (
    couple_brownians,
    couple_sdes,
    monge_sde,
    rotation_monge,
    tanaka_coupling,
)
from pathcoupling.cost import CostSpec
from pathcoupling.errors import DomainError
from pathcoupling.sde import (
    CoefficientField,
    SdeModel,
    TimeGrid,
    decompose,
    inverse_ito_map,
    ito_map,
    sample_brownian,
)

N_PATHS, GRID = 5, TimeGrid(16)


def _sign(x):
    return np.where(x > 0.0, 1.0, -1.0)


def _diag(values):
    """(..., d) diagonals as (..., d, d) matrices."""
    return values[..., None] * np.eye(values.shape[-1])


def _coefficients(d, per_path):
    """Drift, diffusion, rotation and correlation functions of a prefix: shared constants,
    or per path and depending on the state.  Every matrix is diagonal with entries that
    are powers of two (or exact in binary), so no product or sum inside a matrix
    multiplication rounds and the bytes do not depend on the BLAS build."""
    b0, s0 = np.array([0.25, -0.5])[:d], np.array([2.0, 0.5])[:d]
    q0, c0 = np.array([-1.0, 1.0])[:d], np.array([0.5, -0.25])[:d]
    if not per_path:
        return (lambda x: b0, lambda x: _diag(s0), lambda x: _diag(q0), lambda x, y: _diag(c0))
    return (
        lambda x: b0 - 0.5 * x,
        lambda x: _diag(np.where(x > 0.0, s0, 1.0 / s0)),
        lambda x: _diag(q0 * _sign(x)),
        lambda x, y: _diag(c0 * _sign(x - y)),
    )


def _model(d, per_path, z0=0.5, dst=False):
    b, s, _, _ = _coefficients(d, per_path)
    if dst:  # a target the closed form accepts: per path only in shape, the same on every path
        shared_b, shared_s = _coefficients(d, False)[:2]
        b = (lambda x: np.tile(shared_b(x), (len(x), 1))) if per_path else shared_b
        s = (lambda x: np.tile(shared_s(x), (len(x), 1, 1))) if per_path else shared_s
    return SdeModel(
        z0=np.full(d, z0),
        drift=CoefficientField("drift", d, lambda k, t, p: b(p[:, -1])),
        diffusion=CoefficientField("diffusion", d, lambda k, t, p: s(p[:, -1])),
        label="dst" if dst else "src",
    )


def _outputs(kernel, d, per_path):
    """The arrays one kernel produces for one case, in a fixed order."""
    src, dst = _model(d, per_path), _model(d, per_path, z0=-0.25, dst=True)
    _, _, q, c = _coefficients(d, per_path)
    rot = CoefficientField("rotation", d, lambda k, t, xp: q(xp[:, -1]))
    rho = CoefficientField("correlation", d, lambda k, t, xp, yp: c(xp[:, -1], yp[:, -1]))
    driver = sample_brownian(GRID, d, N_PATHS, seed=31)
    if kernel == "ito_map":
        return [ito_map(src, driver).values]
    if kernel == "inverse_ito_map":
        return [inverse_ito_map(src, ito_map(src, driver)).values]
    if kernel == "decompose":
        return [part.values for part in decompose(src, ito_map(src, driver))]
    if kernel == "couple_brownians":
        pair = couple_brownians(rho, GRID, N_PATHS, seed=32)
        return [pair.x, pair.y]
    if kernel == "rotation_monge":
        return [rotation_monge(rot, driver).y]
    if kernel == "monge_sde":
        pair = monge_sde(dst.drift, dst.diffusion, rot, src, GRID, N_PATHS, seed=33, z0_dst=dst.z0)
        return [pair.x, pair.y, np.array(pair.provenance["kernel_residual"])]
    out = []
    for h in ("zero", "sup", "l2"):
        spec = CostSpec.separable(h=presets.build("h", h, d=d), g=presets.build("g", "identity", d=d))
        if kernel == "closed_form_optimal":
            value, q_star = cost.closed_form_optimal(src, dst, spec, ito_map(src, driver))
            out += [np.array([value.mean, value.stderr]), q_star.eval(7, 7 * GRID.dt, driver.values[:, :8])]
        else:  # the drift recursion of a separable cost, in one block and in blocks of 3 steps
            pair = couple_sdes(src, dst, rho, GRID, N_PATHS, seed=34)
            for block_bytes in (sde._BLOCK_BYTES, 8 * N_PATHS * d * 3):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(sde, "_BLOCK_BYTES", block_bytes)
                    out.append(cost._separable_values(pair, src, dst, spec))
    return out


def _digest(kernel):
    sha = hashlib.sha256()
    for d in (1, 2):
        for per_path in (False, True):
            for arr in _outputs(kernel, d, per_path):
                sha.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return sha.hexdigest()


# sha256 of each kernel's outputs over d = 1, 2 with shared and per-path coefficients (and
# h = zero, sup, l2 for the two cost kernels), recorded before the kernels shared one step walk;
# closed_form_optimal's again once h was handed time-major values, as cost.estimate hands them,
# which moved one last digit: the l2 stderr at d = 1, per path, 0.4328013277308095 -> ...954;
# monge_sde's again once its X was the Euler recursion over each path's own drawn increments
# instead of the differences of a summed Brownian path, which rounds them differently
_KERNEL_SHA256 = {
    "ito_map": "6395c20c5121e736ab97e614e0511e4f9c1f9810b27b891044fdbdf942d9040e",
    "inverse_ito_map": "8b9adb658b84d421fcfa477c7a1b0e07686d02841474295c1b512f7666ee33c4",
    "decompose": "8aafa9b2b01c32a17797e07864237ff4b10673c2150e1478108aaed61ea7b2ca",
    "couple_brownians": "d8a7c8dd5f97bee3326b512be8b5c4f83651164b5e8133b4057d64737baebef4",
    "rotation_monge": "4e9673fc5632cb779ba533e6f44e42660ab1a5ba0dcead307bb4485d1e99311f",
    "monge_sde": "e5d259308bb1de33419a3289f7ac98ccba54d8363ea2a50bc0a0fb528420dcb0",
    "closed_form_optimal": "c44f014396060b9dddf54485756676bd8b55ffaa782c2cb951f92dbfa6d29e40",
    "separable_values": "ed82d5189b9363b8b6de0b44ca0a56f3309a7ff5450163389a3c5d82d3ef3aea",
}


@pytest.mark.parametrize("kernel", sorted(_KERNEL_SHA256))
def test_kernel_outputs_keep_their_bytes(kernel):
    assert _digest(kernel) == _KERNEL_SHA256[kernel]


# sha256 of tanaka_coupling's x then y leg at (N, n_steps, seed), recorded while X was still
# summed path by path with its own cumulative sum instead of by rotation_monge's walk
_TANAKA_SHA256 = {
    (3, 8, 0): "c0b75127be4b8671fd42169cee5e7c984bf09e40f9dd373592671d94ebe7ee9b",
    (7, 16, 3): "1fbbca64cc87606847abe667d504ab1d7d44f39e0183198351b154f3a1751b5f",
    (500, 1024, 64): "005ab6ddd8ac53c9c7030cc839259bf6d166340a9d22284666c94db0c426ba32",
}


@pytest.mark.parametrize("sizes", sorted(_TANAKA_SHA256))
def test_tanaka_coupling_keeps_its_bytes_in_time_major_legs(sizes):
    n_pairs, n_steps, seed = sizes
    pair = tanaka_coupling(TimeGrid(n_steps), n_pairs, seed)
    sha = hashlib.sha256()
    for leg in (pair.x, pair.y):
        assert np.swapaxes(leg, 0, 1).flags.c_contiguous  # the storage every step kernel fills
        sha.update(np.ascontiguousarray(leg).tobytes())
    assert sha.hexdigest() == _TANAKA_SHA256[sizes]


# ---------------------------------------------------------------------------
# a failing step is reported at its index

FAIL_STEP, BAD_PATHS = 3, [1, 3]


def _failing(value, failure):
    """A field function that returns the shared ``value`` except at FAIL_STEP, where it
    returns NaN on BAD_PATHS, overflows or raises a DomainError that names no step."""

    def fn(k, t, prefix, *more):
        if k != FAIL_STEP:
            return value
        if failure == "overflow":
            return value * np.exp(np.full(value.shape, 1000.0))
        if failure == "refused":
            raise DomainError("refused")
        out = np.repeat(value[None], len(prefix), axis=0)
        out[BAD_PATHS] = np.nan
        return out

    return fn


def _run_failing(kernel, failure):
    """Run ``kernel`` with the one field it takes from outside failing at FAIL_STEP."""
    d = 2
    drift = CoefficientField("drift", d, _failing(np.zeros(d), failure), label="failing")
    bm = presets.build("model", "bm", d=d)
    src = SdeModel(z0=np.zeros(d), drift=drift, diffusion=bm.diffusion)
    driver = sample_brownian(GRID, d, N_PATHS, seed=35)
    spec = CostSpec.separable(h=presets.build("h", "l2", d=d), g=presets.build("g", "identity", d=d))
    if kernel == "couple_brownians":
        rho = CoefficientField("correlation", d, _failing(0.5 * np.eye(d), failure), label="failing")
        couple_brownians(rho, GRID, N_PATHS, seed=36)
    elif kernel == "rotation_monge":
        rotation_monge(CoefficientField("rotation", d, _failing(np.eye(d), failure), label="failing"), driver)
    elif kernel == "monge_sde":
        identity = CoefficientField.constant("rotation", 1.0, d, "identity")
        monge_sde(drift, bm.diffusion, identity, bm, GRID, N_PATHS, seed=37)
    elif kernel == "closed_form_optimal":
        cost.closed_form_optimal(src, bm, spec, driver)
    elif kernel == "separable_values":
        pair = couple_sdes(bm, bm, CoefficientField.constant("correlation", 1.0, d), GRID, N_PATHS, seed=38)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sde, "_BLOCK_BYTES", 8 * N_PATHS * d * 2)  # blocks of 2 steps: step 3 is in the second
            cost.estimate(pair, spec, src, bm)
    else:
        {"ito_map": ito_map, "inverse_ito_map": inverse_ito_map, "decompose": decompose}[kernel](src, driver)


@pytest.mark.parametrize("failure", ["nan", "overflow", "refused"])
@pytest.mark.parametrize("kernel", sorted(_KERNEL_SHA256))
def test_a_failing_step_raises_a_domain_error_at_its_index(kernel, failure):
    with pytest.raises(DomainError) as err:
        _run_failing(kernel, failure)  # under the suite's filter any warning before it fails the test
    assert err.value.step == FAIL_STEP
    assert str(err.value).endswith(f"(at step {FAIL_STEP})")
    refused = {"couple_brownians": "non-finite entries", "rotation_monge": "not orthogonal (defect nan)"}
    kind = {"couple_brownians": "correlation", "rotation_monge": "rotation"}.get(kernel, "drift")
    if failure == "nan" and kernel in refused:  # stopped by the membership check before the state
        assert refused[kernel] in str(err.value)
        assert f"{kind} 'failing'" in str(err.value)  # names the field it refused
    else:
        message = {"nan": f"non-finite on {len(BAD_PATHS)} path(s)",
                   "overflow": f"{kind} 'failing': floating-point overflow"}  # names the field that failed
        assert message.get(failure, "refused") in str(err.value)


# ---------------------------------------------------------------------------
# the walk alone decides a state's width


def test_a_one_path_state_widens_at_its_first_per_path_value_and_a_wide_one_never_narrows():
    # steps 0..2 return one shared row, step 3 on rows per path: knots 0..3 are the one-path
    # values copied across the paths, the knots after them per path
    rows = np.arange(1.0, N_PATHS + 1)[:, None] * np.array([0.5, -0.25])

    def step(k, t, prefix):
        return prefix[:, -1] + (0.125 if k < 3 else rows)

    narrow = np.zeros((7, 1, 2))
    got = sde._walk(narrow, GRID.dt, step, "widening")
    assert got.shape == (N_PATHS, 7, 2) and narrow.shape == (7, 1, 2)
    assert all(got[i, :4].tobytes() == narrow[:4, 0].tobytes() for i in range(N_PATHS))
    assert np.array_equal(got[:, 4:], narrow[3, 0] + rows[:, None] * np.arange(1, 4)[:, None])
    wide = np.zeros((7, N_PATHS, 2))
    got = sde._walk(wide, GRID.dt, lambda k, t, prefix: prefix[:, -1:].mean(axis=0) + 0.125, "narrowing")
    assert got.shape == (N_PATHS, 7, 2) and np.shares_memory(got, wide)  # filled in place, every row
    assert np.array_equal(got, np.broadcast_to(0.125 * np.arange(7)[:, None], (N_PATHS, 7, 2)))
