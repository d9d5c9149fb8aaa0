"""Tests for the preset registry."""

import inspect

import numpy as np
import pytest

from pathcoupling import presets, sde
from pathcoupling.errors import ConfigError
from pathcoupling.linalg import MEMBERSHIP_TOL, correlation_margin, kernel_dim, orthogonality_defect
from pathcoupling.sde import TimeGrid, ito_map, sample_brownian


def test_registry_lists_the_core_presets():
    names = {p.name for p in presets.available()}
    for name in ("bm", "ou", "gbm-bounded", "const-matrix", "rotation-by-state"):
        assert name in names
    assert len(presets.available("model")) >= 5


@pytest.mark.parametrize("preset", presets.available(), ids=lambda p: f"{p.kind}-{p.name}")
def test_every_preset_takes_its_signature_and_builds_at_its_defaults(preset):
    accepted = sorted(set(inspect.signature(preset.builder).parameters) - {"d"})
    with pytest.raises(ConfigError) as err:
        presets.build(preset.kind, preset.name, nonsense=1)
    assert str(err.value).endswith(f"accepted: {accepted}")
    # at its defaults in a dimension it supports
    built = []
    for d in (1, 2):
        try:
            built.append(presets.build(preset.kind, preset.name, d=d))
        except ConfigError as err:
            assert f"is {3 - d}-d only" in str(err)
    assert built


def test_a_value_of_the_wrong_type_shape_or_range_is_a_config_error_naming_the_preset():
    with pytest.raises(ConfigError) as err:
        presets.build("model", "ou", theta="x")
    assert "model preset 'ou'" in str(err.value) and "'x'" in str(err.value)
    with pytest.raises(ConfigError) as err:  # a DimensionError out of the builder
        presets.build("correlation", "const", d=2, c=[[1.0, 0.0, 0.0]])
    assert "correlation preset 'const'" in str(err.value) and "(2, 2)" in str(err.value)
    with pytest.raises(ConfigError) as err:  # a DomainError out of the builder
        presets.build("rotation", "chop", c=2.0)
    assert "rotation preset 'chop'" in str(err.value) and "[-1, 1]" in str(err.value)


def test_unknown_preset_is_a_config_error_listing_alternatives():
    with pytest.raises(ConfigError) as err:
        presets.build("model", "levy")
    assert "levy" in str(err.value) and "ou" in str(err.value)
    with pytest.raises(ConfigError):
        presets.build("model", "bm", d=1, nonsense=3)


def test_bm_and_const_matrix_models():
    m = presets.build("model", "bm", d=2, sigma=2.0)
    assert m.dim == 2
    assert np.array_equal(m.diffusion.eval(0, 0.0, np.zeros((1, 1, 2))), 2.0 * np.eye(2))
    m2 = presets.build("model", "const-matrix", d=2, sigma=[[1.0, 0.5], [0.0, 1.0]], mu=0.3)
    assert np.array_equal(
        m2.diffusion.eval(0, 0.0, np.zeros((1, 1, 2))), [[1.0, 0.5], [0.0, 1.0]]
    )
    assert np.array_equal(m2.drift.eval(0, 0.0, np.zeros((1, 1, 2))), [0.3, 0.3])


def test_ou_drift_pulls_toward_the_mean():
    m = presets.build("model", "ou", d=1, theta=2.0, mean=1.0)
    prefix = np.array([[[3.0]]])
    assert np.allclose(m.drift.eval(0, 0.0, prefix), [[-4.0]])


def test_gbm_bounded_volatility_band():
    m = presets.build("model", "gbm-bounded", d=1, sigma=1.0)
    for x in (-50.0, -1.0, 0.0, 2.0, 100.0):
        sig = m.diffusion.eval(0, 0.0, np.array([[[x]]]))
        assert 1.0 <= sig[0, 0, 0] < 2.0


def test_degenerate_model_kernel():
    m = presets.build("model", "degenerate", d=3, rank=1)
    sig = m.diffusion.eval(0, 0.0, np.zeros((1, 1, 3)))
    assert kernel_dim(sig) == 2


def test_expr_model_evaluates_safely():
    m = presets.build("model", "expr", d=1, sigma_expr="1 + 0.5*sin(x0)", mu_expr="-x0")
    prefix = np.array([[[0.0]], [[np.pi / 2]]])
    sig = m.diffusion.eval(0, 0.0, prefix)
    assert np.allclose(sig[:, 0, 0], [1.0, 1.5])
    assert np.allclose(m.drift.eval(0, 0.0, prefix)[:, 0], [0.0, -np.pi / 2])
    with pytest.raises(Exception):
        presets.build("model", "expr", d=1, sigma_expr="__import__('os')")
    # an expr model must still be drivable end to end
    out = ito_map(m, sample_brownian(TimeGrid(16), 1, 4, seed=77))
    assert np.isfinite(out.values).all()


@pytest.mark.parametrize("d", [1, 2])
def test_an_expr_model_that_reads_no_x_is_shared_and_walks_as_bm_does(d):
    # one value for every path: kernels walk it one path wide and memoise it, as they do a constant
    model = presets.build("model", "expr", d=d, sigma_expr="2", mu_expr="0")
    prefix = np.zeros((5, 1, d))
    assert model.drift.eval(0, 0.0, prefix).shape == (d,)
    assert model.diffusion.eval(0, 0.0, prefix).shape == (d, d)
    driver = sample_brownian(TimeGrid(64), d, 50, seed=3)
    bm = presets.build("model", "bm", d=d, sigma=2.0)
    assert ito_map(model, driver).values.tobytes() == ito_map(bm, driver).values.tobytes()


def test_rotation_presets_are_orthogonal():
    prefix = np.array([[[0.3, -1.2]], [[0.0, 0.5]]])
    for name, kwargs in (
        ("identity", {}),
        ("angle", {"theta": 0.7}),
        ("rotation-by-state", {"scale": 1.0}),
    ):
        q = presets.build("rotation", name, d=2, **kwargs)
        mat = np.asarray(q.eval(0, 0.0, prefix))
        mats = mat if mat.ndim == 3 else mat[None]
        for single in mats:
            assert orthogonality_defect(single) <= 1e-12


def test_sign_and_chop_rotations():
    q = presets.build("rotation", "sign", d=1, s=-1)
    assert q.eval(0, 0.0, None)[0, 0] == -1.0
    with pytest.raises(ConfigError):
        presets.build("rotation", "sign", d=1, s=0.5)
    q = presets.build("rotation", "chop", d=1, c=0.5)
    sched = [q.eval(k, 0.0, None)[0, 0] for k in range(8)]
    assert sched == [1.0, 1.0, -1.0, 1.0, 1.0, 1.0, -1.0, 1.0]
    for gone in ({"block": 4}, {"n_steps": 8}):  # config v1 break: the chop has no block and no grid
        with pytest.raises(ConfigError):
            presets.build("rotation", "chop", d=1, c=0.5, **gone)


def test_correlation_presets_are_admissible():
    c = presets.build("correlation", "const", d=2, c=0.5)
    assert correlation_margin(c.eval(0, 0.0, None, None)) >= -MEMBERSHIP_TOL
    sr = presets.build("correlation", "scaled-rotation", d=2, scale=0.8, theta=np.pi / 6)
    mat = sr.eval(0, 0.0, None, None)
    assert correlation_margin(mat) >= -MEMBERSHIP_TOL
    assert np.allclose(np.linalg.svd(mat, compute_uv=False), 0.8)


# The labels each preset gives its fields, as recorded before rotations and correlations became
# coefficient fields; provenance carries them into manifest.json and error messages name them.
_FIELD_LABELS = [  # kind, name, d, parameters, labels
    ("model", "bm", 1, {}, ("const([0.0])", "const-matrix")),
    ("model", "bm", 2, {}, ("const([0.0, 0.0])", "const-matrix")),
    ("model", "bm", 2, {"sigma": 2.0}, ("const([0.0, 0.0])", "const-matrix")),
    ("model", "const-matrix", 1, {}, ("const([0.0])", "const-matrix")),
    ("model", "const-matrix", 2, {}, ("const([0.0, 0.0])", "const-matrix")),
    ("model", "const-matrix", 2, {"mu": [0.1, -0.2], "sigma": [[1.0, 0.5], [0.0, 1.0]]},
     ("const([0.1, -0.2])", "const-matrix")),
    ("model", "degenerate", 1, {}, ("const([0.0])", "const-matrix")),
    ("model", "degenerate", 2, {}, ("const([0.0, 0.0])", "const-matrix")),
    ("model", "expr", 1, {}, ("expr(0)", "expr(1)")),
    ("model", "expr", 2, {}, ("expr(0)", "expr(1)")),
    ("model", "gbm-bounded", 1, {}, ("const([0.0])", "gbm-bounded(1.0)")),
    ("model", "gbm-bounded", 2, {}, ("const([0.0, 0.0])", "gbm-bounded(1.0)")),
    ("model", "ou", 1, {}, ("ou(theta=1.0,mean=0.0)", "const-matrix")),
    ("model", "ou", 2, {}, ("ou(theta=1.0,mean=0.0)", "const-matrix")),
    ("rotation", "angle", 2, {}, "angle(0.0)"),
    ("rotation", "angle", 2, {"theta": 0.5}, "angle(0.5)"),
    ("rotation", "chop", 1, {}, "chop(c=0.0)"),
    ("rotation", "identity", 1, {}, "identity"),
    ("rotation", "identity", 2, {}, "identity"),
    ("rotation", "matrix", 1, {}, "const([[1.0]])"),
    ("rotation", "matrix", 2, {}, "const([[1.0, 0.0], [0.0, 1.0]])"),
    ("rotation", "matrix", 2, {"q": [[0.0, 1.0], [1.0, 0.0]]}, "const([[0.0, 1.0], [1.0, 0.0]])"),
    ("rotation", "rotation-by-state", 2, {}, "rotation-by-state(scale=1.0)"),
    ("rotation", "sign", 1, {}, "const([[-1.0]])"),
    ("rotation", "sign", 1, {"s": 1.0}, "const([[1.0]])"),
    ("correlation", "const", 1, {}, "const([[0.0]])"),
    ("correlation", "const", 2, {}, "const([[0.0, 0.0], [0.0, 0.0]])"),
    ("correlation", "const", 2, {"c": [[0.5, 0.0], [0.0, -0.25]]}, "const([[0.5, 0.0], [0.0, -0.25]])"),
    ("correlation", "scaled-rotation", 2, {}, "scaled-rotation(0.8,0.0)"),
    ("correlation", "scaled-rotation", 2, {"scale": 0.5, "theta": 1.0}, "scaled-rotation(0.5,1.0)"),
]


def test_every_preset_keeps_its_field_labels():
    labels = []
    for kind, name, d, params, _ in _FIELD_LABELS:
        built = presets.build(kind, name, d=d, **params)
        labels.append((built.drift.label, built.diffusion.label) if kind == "model" else built.label)
    assert labels == [row[-1] for row in _FIELD_LABELS]
    # every model, rotation and correlation preset is pinned
    fields = {(p.kind, p.name) for p in presets.available() if p.kind in ("model", "rotation", "correlation")}
    assert {row[:2] for row in _FIELD_LABELS} == fields


@pytest.mark.parametrize("block_bytes", [sde._BLOCK_BYTES, 256, 8 * 50 * 2 * 7])
@pytest.mark.parametrize("layout", ["path-major", "time-major"])
def test_h_presets_walked_over_blocks_match_the_whole_path_formulas(monkeypatch, layout, block_bytes):
    # 256: one step a block; 8·N·d·7: 7 steps a block, not dividing the 96 steps
    paths = np.cumsum(np.random.default_rng(7).standard_normal((50, 97, 2)), axis=1)
    if layout == "time-major":
        paths = np.ascontiguousarray(np.swapaxes(paths, 0, 1)).swapaxes(0, 1)
    monkeypatch.setattr(sde, "_BLOCK_BYTES", block_bytes)
    sup = presets.build("h", "sup", d=2)(paths)
    assert sup.tobytes() == np.linalg.norm(paths, axis=2).max(axis=1).tobytes()
    # l2 sums the steps in time order, the whole-path mean pairwise: the last digits may differ
    l2 = presets.build("h", "l2", d=2)(paths)
    assert np.allclose(l2, (paths[:, :-1] ** 2).sum(axis=2).mean(axis=1), rtol=1e-14, atol=0.0)


def test_cost_functional_presets():
    h_sup = presets.build("h", "sup", d=1)
    paths = np.array([[[0.0], [2.0], [-3.0]]])
    assert np.allclose(h_sup(paths), [3.0])
    h_zero = presets.build("h", "zero", d=1)
    assert np.array_equal(h_zero(paths), [0.0])
    g = presets.build("g", "sqrt", d=1)
    assert np.allclose(g(np.array([4.0])), [2.0])
