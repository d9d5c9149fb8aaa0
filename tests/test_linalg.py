"""Unit tests for the matrix kernel.

Derived expectations are computed by independent oracles inside this
file (explicit grid scans, row reduction, hand-built projections), not
by the code under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcoupling import linalg
from pathcoupling.errors import DimensionError, DomainError

TOL = linalg.MEMBERSHIP_TOL

def _random_rotation(rng, d):
    """Haar-ish rotation via QR with the sign fix that makes R unique."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _row_reduce_rank(a, tol=1e-10):
    """Rank by plain Gaussian elimination with partial pivoting."""
    m = np.array(a, dtype=float)
    n_rows, n_cols = m.shape
    rank = 0
    for col in range(n_cols):
        if rank == n_rows:
            break
        pivot = rank + int(np.argmax(np.abs(m[rank:, col])))
        if np.abs(m[pivot, col]) <= tol:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = m[rank] / m[rank, col]
        for r in range(n_rows):
            if r != rank:
                m[r] = m[r] - m[r, col] * m[rank]
        rank += 1
    return rank


def _o2_grid(n_points=10_000):
    """All of O(2) sampled on an angle grid: rotations and reflections."""
    theta = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    ref = rot @ np.diag([1.0, -1.0])
    return np.concatenate([rot, ref], axis=0)


# ---------------------------------------------------------------------------
# SVD-based kernels: trace maximiser, pinv / kernel projector, kernel dimension


def test_svd_reconstructs():
    # A Q* = U diag(S) U^T is symmetric PSD and A = (A Q*) Q*^T: the polar
    # decomposition the trace maximiser is read from.
    rng = np.random.default_rng(101)
    for d in (1, 2, 3, 5):
        a = rng.standard_normal((d, d))
        q, v = linalg.trace_max_rotation(a)
        p = a @ q
        assert np.allclose(p, p.T, atol=1e-10)
        assert np.linalg.eigvalsh(0.5 * (p + p.T)).min() >= -1e-10
        assert np.allclose(p @ q.T, a, atol=1e-10)
        assert np.allclose(q.T @ q, np.eye(d), atol=1e-10)
        assert np.trace(p) == pytest.approx(v, abs=1e-10)


def test_svd_deterministic_bitwise():
    rng = np.random.default_rng(103)
    a = rng.standard_normal((4, 4))
    for kernel in (linalg.trace_max_rotation, linalg.pinv_and_null):
        for r1, r2 in zip(kernel(a), kernel(a.copy())):
            assert np.array_equal(r1, r2)
    assert np.array_equal(linalg.psd_sqrt(a @ a.T), linalg.psd_sqrt((a @ a.T).copy()))


def test_svd_diag_singular_values():
    _, v = linalg.trace_max_rotation(np.diag([3.0, -2.0]))
    assert v == pytest.approx(5.0, abs=1e-14)
    pinv, null = linalg.pinv_and_null(np.diag([3.0, -2.0]))
    assert np.allclose(pinv, np.diag([1.0 / 3.0, -0.5]), atol=1e-15)
    assert np.array_equal(null, np.zeros((2, 2)))


def test_svd_rejects_nonsquare_and_nonfinite():
    nan = np.array([[1.0, np.nan], [0.0, 1.0]])
    inf_in_batch = np.stack([np.eye(2), np.diag([1.0, np.inf])])
    for kernel in (linalg.trace_max_rotation, linalg.pinv_and_null, linalg.kernel_dim,
                   linalg.psd_sqrt):
        for shape in [(2, 3), (4, 2, 3), (3,)]:
            with pytest.raises(DimensionError):
                kernel(np.ones(shape))
        for bad in (nan, inf_in_batch):
            with pytest.raises(DomainError):
                kernel(bad)
    for check in (linalg.orthogonality_defect, linalg.correlation_margin):
        with pytest.raises(DimensionError):
            check(np.ones((4, 2, 3)))


def test_pinv_matches_direct_inverse():
    rng = np.random.default_rng(111)
    a = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    pinv, null = linalg.pinv_and_null(a)
    assert np.allclose(pinv, np.linalg.inv(a), atol=1e-10)
    assert np.array_equal(null, np.zeros((4, 4)))


@pytest.mark.parametrize(
    "a",
    [
        np.array([[1.0, 2.0], [2.0, 4.0]]),
        np.zeros((3, 3)),
        np.diag([1.0, 0.0, 2.0]),
    ],
)
def test_pinv_penrose_identities(a):
    p, _ = linalg.pinv_and_null(a)
    assert np.allclose(a @ p @ a, a, atol=1e-10)
    assert np.allclose(p @ a @ p, p, atol=1e-10)
    assert np.allclose((a @ p).T, a @ p, atol=1e-10)
    assert np.allclose((p @ a).T, p @ a, atol=1e-10)


def test_projection_rank_one_oracle():
    # pinv(A) A projects onto span{(1,1)} and the kernel projector onto its
    # complement span{(1,-1)}.
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    v, w = np.array([1.0, 1.0]), np.array([1.0, -1.0])
    pinv, null = linalg.pinv_and_null(a)
    assert np.allclose(pinv @ a, np.outer(v, v) / (v @ v), atol=1e-12)
    assert np.allclose(null, np.outer(w, w) / (w @ w), atol=1e-12)


def test_projection_idempotent_symmetric():
    rng = np.random.default_rng(112)
    for _ in range(200):
        d = int(rng.integers(1, 6))
        a = rng.standard_normal((d, d))
        if rng.random() < 0.5 and d > 1:
            a[:, 0] = a[:, 1]  # force rank deficiency
        pinv, null = linalg.pinv_and_null(a)
        for p in (pinv @ a, null):
            assert np.allclose(p, p.T, atol=1e-10)
            assert np.allclose(p @ p, p, atol=1e-10)
        assert np.allclose(pinv @ a + null, np.eye(d), atol=1e-10)
        assert np.allclose(a @ null, 0.0, atol=1e-10)


def test_kernel_dim_against_row_reduction():
    rng = np.random.default_rng(113)
    for _ in range(200):
        d = int(rng.integers(1, 6))
        rank = int(rng.integers(0, d + 1))
        a = rng.standard_normal((d, rank)) @ rng.standard_normal((rank, d))
        assert linalg.kernel_dim(a) == d - _row_reduce_rank(a)


def test_kernel_dim_examples():
    assert linalg.kernel_dim(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1
    assert linalg.kernel_dim(np.zeros((3, 3))) == 3
    assert linalg.kernel_dim(np.eye(4)) == 0
    assert linalg.kernel_dim(np.diag([1.0, 0.0])) == 1
    # near the top of the float range s_max would overflow to inf and drop every value
    assert linalg.kernel_dim(np.full((3, 3), 1e308)) == 2
    assert linalg.kernel_dim(np.diag([1.7e308, 1.7e308])) == 0


# ---------------------------------------------------------------------------
# membership tests


def test_correlation_margin_matches_singular_value_oracle():
    # Eigenvalues of [[I, C], [C^T, I]] are 1 +/- the singular values of C,
    # so the margin must equal 1 - max singular value.
    rng = np.random.default_rng(121)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        c = rng.standard_normal((d, d))
        smax = np.linalg.svd(c, compute_uv=False)[0]
        assert linalg.correlation_margin(c) == pytest.approx(1.0 - smax, abs=1e-10)


def test_is_correlation_examples():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    for c in (rot, 0.5 * np.eye(2), np.array([[0.7]])):
        assert linalg.correlation_margin(c) >= -TOL
    for c in (1.2 * rot, np.array([[1.01]])):
        assert linalg.correlation_margin(c) < -TOL


def test_orthogonal_matrices_are_correlations():
    rng = np.random.default_rng(122)
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        r = _random_rotation(rng, d)
        assert linalg.correlation_margin(r) >= -TOL


def test_is_orthogonal():
    rng = np.random.default_rng(123)
    assert linalg.orthogonality_defect(np.diag([1.0, -1.0])) <= TOL
    assert linalg.orthogonality_defect(_random_rotation(rng, 3)) <= TOL
    assert linalg.orthogonality_defect(np.array([[1.0, 1.0], [0.0, 1.0]])) > TOL
    assert linalg.orthogonality_defect(1.001 * np.eye(2)) > TOL


# ---------------------------------------------------------------------------
# trace-maximising rotation


def test_trace_max_against_grid_oracle():
    rng = np.random.default_rng(131)
    grid = _o2_grid()
    mats = [np.diag([3.0, -2.0])] + [rng.standard_normal((2, 2)) for _ in range(5)]
    for a in mats:
        q, v = linalg.trace_max_rotation(a)
        oracle = np.einsum("ij,nji->n", a, grid).max()
        assert v == pytest.approx(oracle, abs=1e-6)
        assert np.trace(a @ q) == pytest.approx(v, abs=1e-10)
        assert linalg.orthogonality_defect(q) <= 1e-10


def test_trace_max_diag_example():
    q, v = linalg.trace_max_rotation(np.diag([3.0, -2.0]))
    assert v == pytest.approx(5.0, abs=1e-12)
    assert np.allclose(q, np.diag([1.0, -1.0]), atol=1e-12)


def test_trace_max_on_orthogonal_input():
    rng = np.random.default_rng(132)
    for d in (1, 2, 3, 4):
        r = _random_rotation(rng, d)
        q, v = linalg.trace_max_rotation(r)
        assert v == pytest.approx(float(d), abs=1e-10)
        assert np.allclose(q, r.T, atol=1e-10)


def test_trace_max_value_is_singular_value_sum():
    rng = np.random.default_rng(133)
    for _ in range(100):
        a = rng.standard_normal((3, 3))
        _, v = linalg.trace_max_rotation(a)
        assert v == pytest.approx(np.linalg.svd(a, compute_uv=False).sum(), abs=1e-10)


def test_trace_max_dominates_correlation_class():
    # Tr(A C) over the correlation class is maximised at an orthogonal
    # matrix; sample 10^4 members and check none beats the rotation.
    rng = np.random.default_rng(134)
    a = rng.standard_normal((3, 3))
    _, v = linalg.trace_max_rotation(a)
    u = _random_rotation(rng, 3)
    for _ in range(10_000):
        w = _random_rotation(rng, 3)
        c = u @ np.diag(rng.random(3)) @ w
        assert np.trace(a @ c) <= v + 1e-10


def test_rotation_grid_max_agrees_with_svd_route():
    rng = np.random.default_rng(135)
    for _ in range(5):
        a = rng.standard_normal((2, 2))
        _, v = linalg.trace_max_rotation(a)
        q_grid, v_grid = linalg.rotation_grid_max(a)
        assert abs(v - v_grid) < 1e-6
        assert linalg.orthogonality_defect(q_grid) <= 1e-12
    with pytest.raises(DimensionError):
        linalg.rotation_grid_max(np.eye(3))


# ---------------------------------------------------------------------------
# psd square root


def test_psd_sqrt_reconstructs():
    rng = np.random.default_rng(141)
    for d in (1, 2, 4):
        g = rng.standard_normal((d, d))
        a = g @ g.T
        b = linalg.psd_sqrt(a)
        assert np.allclose(b, b.T, atol=1e-12)
        assert np.allclose(b @ b, a, atol=1e-9)


def test_psd_sqrt_zero_matrix():
    assert np.array_equal(linalg.psd_sqrt(np.zeros((3, 3))), np.zeros((3, 3)))


def test_psd_sqrt_clamps_tiny_negativity():
    a = np.eye(2) * 1.0
    a[1, 1] = -5e-11
    b = linalg.psd_sqrt(a)
    assert b[1, 1] == 0.0


def test_psd_sqrt_rejects_bad_input():
    with pytest.raises(DomainError):
        linalg.psd_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(DomainError):
        linalg.psd_sqrt(np.diag([1.0, -1e-6]))
    # in a batch, one bad member is enough
    with pytest.raises(DomainError, match="symmetric"):
        linalg.psd_sqrt(np.stack([np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])]))
    with pytest.raises(DomainError, match="not PSD"):
        linalg.psd_sqrt(np.stack([np.eye(2), np.diag([1.0, -1e-6])]))
    assert linalg.psd_sqrt(np.stack([np.eye(2), np.diag([1.0, -1e-7])]), clamp_tol=1e-6)[1, 1, 1] == 0.0


# ---------------------------------------------------------------------------
# properties over batch shapes (), (k,) and (k, m) with d in 1..4

# derandomized: the examples are fixed per test, so a run fails the same way every time
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def _matrices(draw):
    """Random (..., d, d) matrices of scales 1e-6..1e6; about one in five is rank-deficient."""
    d = draw(st.integers(1, 4))
    batch = draw(st.sampled_from([(), (3,), (2, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal(batch + (d, d)) * 10.0 ** rng.uniform(-6, 6, batch + (1, 1))
    singular = rng.random(batch) < 0.2
    a[singular, :, 0] = 0.0 if d == 1 else a[singular, :, -1]
    return a


def _per_matrix(fn, a):
    """``fn`` applied to each (d, d) member of ``a``, outputs stacked to the batch shape."""
    batch = a.shape[:-2]
    outs = [fn(a[idx]) for idx in np.ndindex(batch)]
    if not isinstance(outs[0], tuple):
        outs = [(o,) for o in outs]
    return tuple(np.reshape(np.array(col), batch + np.shape(col[0])) for col in zip(*outs))


@pytest.mark.parametrize(
    "name", ["psd_sqrt", "trace_max_rotation", "pinv_and_null", "kernel_dim", "orthogonality_defect", "_eliminate"]
)
@PROPERTY
@given(a=_matrices())
def test_batch_equals_per_matrix(name, a):
    kernel = getattr(linalg, name)
    if name == "psd_sqrt":  # PSD, scaled to at most 1 so the absolute clamp tolerance holds
        a = a @ np.swapaxes(a, -1, -2)
        a /= np.maximum(1.0, np.abs(a).max(axis=(-2, -1), keepdims=True))
    if name == "_eliminate":  # det and the solution for the row sums; singular members give inf or nan
        kernel = lambda m: linalg._eliminate(m, m.sum(axis=-1))
    batched = kernel(a)
    batched = batched if isinstance(batched, tuple) else (batched,)
    for got, want in zip(batched, _per_matrix(kernel, a), strict=True):
        assert np.shape(got) == want.shape
        assert np.array_equal(got, want, equal_nan=name == "_eliminate")


@PROPERTY
@given(a=_matrices(), seed=st.integers(0, 2**32 - 1))
def test_trace_max_beats_random_orthogonal(a, seed):
    rng = np.random.default_rng(seed)
    q_star, value = linalg.trace_max_rotation(a)
    q, r = np.linalg.qr(rng.standard_normal(a.shape))
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    tr = np.einsum("...ij,...ji->...", a, q)
    assert np.all(value >= tr - 1e-10 * (1.0 + np.abs(value)))
    assert np.allclose(np.einsum("...ij,...ji->...", a, q_star), value, atol=1e-10)


_CUTOFF_RATIOS = (1e-11, 1e-10, 1e-9, 1e-8, 1e-7)


@st.composite
def _rank_rule_cases(draw):
    """(..., d, d) matrices around the rank rule's cutoff and the screen's bound: each member
    is random, has s_min/s_max in ``_CUTOFF_RATIOS`` or in 1e-11..1e-8 (condition 1e8..1e11),
    is exactly rank-deficient or is zero.  About half have their first two rows ordered so
    that elimination must swap them.  Scales run 1e-150..1e150; about a third of the members
    away from the cutoff instead have their largest entry near overflow (1e300..1.5e308) or
    underflow (1e-320..1e-300)."""
    d = draw(st.integers(1, 4))
    batch = draw(st.sampled_from([(), (3,), (2, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, _ = np.linalg.qr(rng.standard_normal(batch + (d, d)))
    v, _ = np.linalg.qr(rng.standard_normal(batch + (d, d)))
    s = 10.0 ** rng.uniform(-3.0, 0.0, batch + (d,))
    kind = rng.integers(0, 5, batch)
    near = (kind == 1) | (kind == 4)
    ratio = np.where(kind == 1, rng.choice(_CUTOFF_RATIOS, batch), 10.0 ** -rng.uniform(8.0, 11.0, batch))
    s[..., -1] = np.where(near, ratio * s.max(axis=-1), s[..., -1])
    a = (u * s[..., None, :]) @ v
    deficient = kind == 2
    a[deficient, :, 0] = 0.0 if d == 1 else a[deficient, :, -1]
    a[kind == 3] = 0.0
    if d > 1:
        swap = (rng.random(batch) < 0.5) & (np.abs(a[..., 1, 0]) <= np.abs(a[..., 0, 0]))
        a[swap] = a[swap][:, [1, 0, *range(2, d)]]
    top = np.abs(a).max(axis=(-2, -1), keepdims=True)
    unit = np.divide(a, top, out=np.zeros_like(a), where=top > 0)  # largest entry 1
    exponent = np.where(rng.random(batch) < 0.5, rng.uniform(300.0, 308.2, batch), rng.uniform(-320.0, -300.0, batch))
    extreme = (~near & (rng.random(batch) < 0.35))[..., None, None]
    return np.where(extreme, unit * 10.0 ** exponent[..., None, None], a * 10.0 ** rng.uniform(-150.0, 150.0, batch + (1, 1)))


def _svd_rank_rule(a):
    """Kernel dimensions by the rank rule on the singular values of a; a member whose
    largest entry exceeds 1e300 is first scaled by an exact power of two, so that s_max
    cannot overflow."""
    top = np.abs(a).max(axis=(-2, -1), keepdims=True)
    s = np.linalg.svd(np.ldexp(a, -np.where(top > 1e300, np.frexp(top)[1], 0)), compute_uv=False)
    return (~(s > 1e-10 * s[..., :1])).sum(axis=-1)


@PROPERTY
@given(a=_rank_rule_cases())
def test_screened_kernel_dim_equals_the_svd_rank_rule(a):
    assert np.array_equal(linalg.kernel_dim(a), _svd_rank_rule(a))


@st.composite
def _systems(draw):
    """Nonsingular (..., d, d) matrices of condition 1..1e12 at scales 1e-100..1e100 and
    right-hand sides (..., d).  In about half, a_00 is shrunk by up to 1e-15 and the first
    two rows are ordered so that elimination must swap them: without the swap, its growth
    would break the backward-error bound."""
    d = draw(st.integers(1, 4))
    batch = draw(st.sampled_from([(), (5,), (2, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, _ = np.linalg.qr(rng.standard_normal(batch + (d, d)))
    v, _ = np.linalg.qr(rng.standard_normal(batch + (d, d)))
    s = 10.0 ** -rng.uniform(0.0, 12.0, batch + (d,))
    a = (u * s[..., None, :]) @ v * 10.0 ** rng.uniform(-100.0, 100.0, batch + (1, 1))
    if d > 1:
        tiny = rng.random(batch) < 0.5
        a[tiny, 0, 0] *= 10.0 ** -rng.uniform(0.0, 15.0, batch)[tiny]
        swap = tiny & (np.abs(a[..., 1, 0]) <= np.abs(a[..., 0, 0]))
        a[swap] = a[swap][:, [1, 0, *range(2, d)]]
    return a, rng.standard_normal(batch + (d,)) * 10.0 ** rng.uniform(-100.0, 100.0, batch + (1,))


@PROPERTY
@given(case=_systems())
def test_elimination_solves_with_a_small_backward_error(case):
    # ||A x - b|| <= c d eps ||A|| ||x|| in the max norm (Higham, ch. 9), the residual taken
    # in extended precision; c = 8 allows for the growth factor of partial pivoting, at most
    # 2^(d-1) = 8 for d <= 4
    a, b = case
    d, eps = a.shape[-1], np.finfo(float).eps
    _, x = linalg._eliminate(a, b)
    wide = np.longdouble
    resid = np.einsum("...ij,...j->...i", a.astype(wide), x.astype(wide)) - b.astype(wide)
    bound = 8 * d * eps * np.abs(a).sum(axis=-1).max(axis=-1) * np.abs(x).max(axis=-1)
    assert np.all(np.abs(resid).max(axis=-1) <= bound)
    # the determinant of a backward-stable factorisation is off by about d eps cond(A)
    # relative, as is LAPACK's; compared at largest entry 1 (an exact scaling), where
    # neither overflows
    unit = np.ldexp(a, -np.frexp(np.abs(a).max(axis=(-2, -1), keepdims=True))[1])
    det, want = linalg._eliminate(unit)[0], np.linalg.det(unit)
    assert np.all(np.abs(det - want) <= 64 * d * eps * np.linalg.cond(unit) * np.abs(want))


@PROPERTY
@given(case=_systems(), n=st.integers(1, 7))
def test_a_shared_matrix_gives_the_bytes_of_its_broadcast_batch(case, n):
    a, _ = case
    a = a.reshape((-1,) + a.shape[-2:])[0]
    b = np.random.default_rng(n).standard_normal((n, a.shape[-1]))
    det, x = linalg._eliminate(a, b)
    det_batch, x_batch = linalg._eliminate(np.broadcast_to(a, (n,) + a.shape), b)
    assert x.tobytes() == x_batch.tobytes()
    assert np.full(n, det).tobytes() == det_batch.tobytes()


@pytest.mark.parametrize("batch", [(), (6,)])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_diagonal_systems_are_exact_quotients(d, batch):
    # no BLAS in the oracle: x = b / diag(A) correctly rounded, det the product in order
    rng = np.random.default_rng(d)
    diag = rng.uniform(0.5, 4.0, batch + (d,)) * rng.choice([-1.0, 1.0], batch + (d,))
    b = rng.standard_normal((6, d))
    a = np.zeros(batch + (d, d))
    a[..., np.arange(d), np.arange(d)] = diag
    det, x = linalg._eliminate(a, b)
    assert x.tobytes() == (b / diag).tobytes()
    want = np.ones(batch)
    for k in range(d):
        want = want * diag[..., k]
    assert np.asarray(det).tobytes() == want.tobytes()
