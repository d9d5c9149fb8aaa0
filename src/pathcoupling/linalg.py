"""Dense linear algebra for small square matrices.

Everything in this module operates on real square matrices of modest
dimension (couplings rarely need d > 8) and is deterministic: the same
input yields bit-identical output on repeated calls.  The SVD and eigh
kernels go to LAPACK via numpy; the determinant of the screen below and
the solve of ``sde.inverse_ito_map`` come from :func:`_eliminate`, an
elementwise elimination over the batch.  What this module adds is tolerance
handling that the rest of the package agrees on (one rank rule, one PSD
clamp), the trace-maximising rotation, the pinv/kernel-projector pair
and the two membership measures used throughout (the correlation margin
and the orthogonality defect, held to ``MEMBERSHIP_TOL``).

The rank rule keeps the singular values above ``DEFAULT_RANK_TOL`` times
the largest.  :func:`kernel_dim` first screens by determinant: s_max <=
||A||_F and |det A| <= s_min s_max^(d-1) give s_min/s_max >= |det A| /
||A||_F^d, so |det A| > 100 DEFAULT_RANK_TOL ||A||_F^d (the factor 100
covers the LU rounding of ``det``) proves that no singular value is
dropped.  The screen only ever answers "no kernel"; every other matrix,
and every one whose bound leaves the normal float range, goes to the SVD,
so each decision is the rule's own.

One batching rule: every kernel takes matrices shaped (..., d, d) - one
(d, d) matrix or any batch of them - with one body for both, and a batch
gives bit for bit the results of per-matrix calls.  Whether a coefficient
is shared by all paths or given per path is decided only by the step
kernels' ``sde._apply`` and ``sde.ValueMemo``.

The correlation class consists of the d x d matrices C for which the
2d x 2d block matrix [[I, C], [C^T, I]] is positive semi-definite;
equivalently, all singular values of C are at most 1.  Orthogonal
matrices are the extreme points of that class, and the trace-maximising
rotation below realises the maximum of Tr(A C) over the whole class.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError

__all__ = [
    "pinv_and_null",
    "kernel_dim",
    "correlation_margin",
    "orthogonality_defect",
    "trace_max_rotation",
    "rotation_grid_max",
    "psd_sqrt",
]

#: Relative threshold below which singular values are treated as zero (the rank rule).
DEFAULT_RANK_TOL = 1e-10

#: Factor by which :func:`kernel_dim`'s determinant screen exceeds the rank rule.
_SCREEN_MARGIN = 100.0

#: Tolerance of the correlation margin and the orthogonality defect.
MEMBERSHIP_TOL = 1e-8


def _square(a) -> np.ndarray:
    """``a`` as float matrices shaped (..., d, d)."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected (..., d, d) matrices, got shape {a.shape}")
    return a


def _finite_square(a) -> np.ndarray:
    """:func:`_square`, rejecting NaN and infinite entries."""
    a = _square(a)
    if not np.isfinite(a).all():
        raise DomainError("matrix contains non-finite entries")
    return a


def _scalar_or_batch(out: np.ndarray):
    """A Python number for one matrix, an array shaped like the batch otherwise."""
    return out.item() if out.ndim == 0 else out


def _kept(s: np.ndarray) -> np.ndarray:
    """The rank rule: the singular values above ``DEFAULT_RANK_TOL`` times the largest."""
    return s > DEFAULT_RANK_TOL * s[..., :1]


def pinv_and_null(a) -> tuple[np.ndarray, np.ndarray]:
    """Moore-Penrose inverse of A and the projector onto its kernel.

    Both are shaped like ``a``.  Singular values that fail the rank rule
    are treated as exact zeros.  The kernel projector I - pinv(A) A is
    assembled from the singular vectors flagged as null, so it is exactly
    the zero matrix when A has full rank - no rounding residue.
    """
    u, s, vh = np.linalg.svd(_finite_square(a))
    keep = _kept(s)
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    v = np.swapaxes(vh, -1, -2)
    pinv = (v * inv[..., None, :]) @ np.swapaxes(u, -1, -2)
    vnull = v * (~keep)[..., None, :]
    return pinv, vnull @ np.swapaxes(vnull, -1, -2)


def _eliminate(a: np.ndarray, b: np.ndarray | None = None):
    """det A and, given b, the solution of A x = b, for (..., d, d) matrices and (..., d) b.

    Gaussian elimination with partial pivoting (LAPACK's getrf/getrs) entry by entry in
    elementwise arithmetic over the batch: the Python loops run over d only.  A column's pivot
    is its first row with the largest |entry| (strict ``>``, as idamax); each row that beats it
    is swapped in, so for d >= 3 the rows below a pivot may be ordered unlike getrf's, which
    matters only at exact ties.  A shared (d, d) matrix broadcasts against (N, d) right-hand
    sides, a batch gives bit for bit the per-matrix results, and a singular or non-finite
    member gives inf or nan in its own entries, without a warning.  x is None without b.
    """
    d = a.shape[-1]
    rows = [[a[..., i, j] for j in range(d)] + ([] if b is None else [b[..., i]]) for i in range(d)]
    det = 1.0
    with np.errstate(all="ignore"):
        for k in range(d):
            for i in range(k + 1, d):
                swap = np.abs(rows[i][k]) > np.abs(rows[k][k])
                det = np.where(swap, -det, det)
                for j in range(k, len(rows[k])):
                    upper, lower = rows[k][j], rows[i][j]
                    rows[k][j], rows[i][j] = np.where(swap, lower, upper), np.where(swap, upper, lower)
            det = det * rows[k][k]
            for i in range(k + 1, d):
                factor = rows[i][k] / rows[k][k]
                for j in range(k + 1, len(rows[k])):
                    rows[i][j] = rows[i][j] - factor * rows[k][j]
        if b is None:
            return det, None
        x = np.empty(np.broadcast_shapes(a.shape[:-1], b.shape))
        for j in reversed(range(d)):
            np.divide(rows[j][d], rows[j][j], out=x[..., j])
            for i in range(j):
                rows[i][d] = rows[i][d] - rows[i][j] * x[..., j]
    return det, x


def _kernel_dim(a, det) -> np.ndarray | int:
    """:func:`kernel_dim` of ``a``, given its determinant ``det`` from :func:`_eliminate`."""
    a = _finite_square(a)
    with np.errstate(all="ignore"):  # an overflowing or underflowing screen just fails
        det = np.abs(det)
        frobenius_sq = np.einsum("...ij,...ij->...", a, a)
        bound = _SCREEN_MARGIN * DEFAULT_RANK_TOL * frobenius_sq ** (a.shape[-1] / 2)
        rest = ~((det > bound) & (bound >= np.finfo(float).tiny))
    out = np.zeros(a.shape[:-2], dtype=np.intp)
    if rest.any():
        # s_max <= d max|a_ij| can overflow only near the top of the float range;
        # there an exact power of two brings the largest entry to O(1)
        top = np.abs(a[rest]).max(axis=(-2, -1))
        shift = np.where(top > np.finfo(float).max / a.shape[-1], np.frexp(top)[1], 0)
        s = np.linalg.svd(np.ldexp(a[rest], -shift[:, None, None]), compute_uv=False)
        out[rest] = (~_kept(s)).sum(axis=-1)
    return _scalar_or_batch(out)


def kernel_dim(a) -> np.ndarray | int:
    """Dimension of the kernel of A: the singular values the rank rule drops.

    Only the members the determinant screen (module docstring) cannot
    clear are factored by SVD.  An int for one matrix, an integer array
    shaped like the batch otherwise.
    """
    a = _square(a)
    return _kernel_dim(a, _eliminate(a)[0])


def _block_extension(c):
    """[[I, C], [C^T, I]] for one matrix or a batch of matrices."""
    d = c.shape[-1]
    eye = np.broadcast_to(np.eye(d), c.shape)
    top = np.concatenate([eye, c], axis=-1)
    bot = np.concatenate([np.swapaxes(c, -1, -2), eye], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def correlation_margin(c) -> np.ndarray | float:
    """Smallest eigenvalue of the block extension [[I, C], [C^T, I]].

    Nonnegative (up to tolerance) exactly when C belongs to the
    correlation class.  Accepts a single (d, d) matrix or any batch
    shaped (..., d, d); returns a float or an array shaped like the
    batch.
    """
    ev = np.linalg.eigvalsh(_block_extension(_finite_square(c)))
    return _scalar_or_batch(ev[..., 0])


def orthogonality_defect(q) -> np.ndarray | float:
    """Max-norm of Q^T Q - I for one matrix or a batch.

    Computed entry by entry of the symmetric Gram matrix with elementwise
    arithmetic over the batch, far cheaper for small d than stacked tiny
    matrix products.
    """
    q = _square(q)
    d = q.shape[-1]
    out = np.zeros(q.shape[:-2])
    for i in range(d):
        for j in range(i, d):
            gram = q[..., 0, i] * q[..., 0, j]
            for r in range(1, d):
                gram += q[..., r, i] * q[..., r, j]
            if i == j:
                gram -= 1.0
            np.maximum(out, np.abs(gram), out=out)
    return _scalar_or_batch(out)


def trace_max_rotation(a) -> tuple[np.ndarray, np.ndarray | float]:
    """Orthogonal maximiser of Tr(A Q) and the attained value.

    With A = U diag(S) V^T, the maximiser is Q* = V U^T and the value is
    the sum of the singular values.  The same value bounds Tr(A C) over
    the whole correlation class, so Q* is also optimal over that larger
    set.  Q* is unique whenever A is invertible; for singular A any
    maximiser may be returned, deterministically for a fixed input.
    For a batch (..., d, d), Q is shaped like it and the value like the
    batch; for one matrix the value is a float.
    """
    u, s, vh = np.linalg.svd(_finite_square(a))
    q = np.swapaxes(vh, -1, -2) @ np.swapaxes(u, -1, -2)
    return q, _scalar_or_batch(s.sum(axis=-1))


def trace_max_rotation_batch(a):
    """The same as :func:`trace_max_rotation`, which takes batches itself.

    Kept only because ``bench/tracing.py`` still lists this name among its
    kernel targets; delete it together with that entry.
    """
    return trace_max_rotation(a)


def rotation_grid_max(a, n_points: int = 10_000) -> tuple[np.ndarray, float]:
    """Brute-force maximum of Tr(A Q) over O(2) on an angle grid.

    The orthogonal group in dimension 2 splits into rotations R(t) and
    reflections R(t) @ diag(1, -1); both branches are scanned over
    ``n_points`` equally spaced angles.  Only valid for 2 x 2 input.
    Serves as an independent cross-check of :func:`trace_max_rotation`;
    with 10^4 grid points the value is accurate to about 1e-6 near a
    smooth maximum.
    """
    a = _finite_square(a)
    if a.shape != (2, 2):
        raise DimensionError("grid scan is only implemented for 2 x 2 matrices")
    theta = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    ct, st = np.cos(theta), np.sin(theta)
    # Tr(A R(t)) and Tr(A R(t) diag(1,-1)) as closed forms in the angle.
    tr_rot = (a[0, 0] + a[1, 1]) * ct + (a[1, 0] - a[0, 1]) * st
    tr_ref = (a[0, 0] - a[1, 1]) * ct + (a[1, 0] + a[0, 1]) * st
    i_rot = int(np.argmax(tr_rot))
    i_ref = int(np.argmax(tr_ref))
    if tr_rot[i_rot] >= tr_ref[i_ref]:
        c, s = ct[i_rot], st[i_rot]
        best = np.array([[c, -s], [s, c]])
        val = float(tr_rot[i_rot])
    else:
        c, s = ct[i_ref], st[i_ref]
        best = np.array([[c, s], [s, -c]])
        val = float(tr_ref[i_ref])
    return best, val


def psd_sqrt(a, clamp_tol: float = 1e-10) -> np.ndarray:
    """Symmetric PSD square root via the eigendecomposition.

    Eigenvalues in [-clamp_tol, 0) are clamped to zero (membership
    checks upstream guarantee PSD only up to sampling noise); anything
    more negative, or an asymmetric input, raises :class:`DomainError`.
    For a batch (..., d, d), every member must qualify.
    """
    a = _finite_square(a)
    at = np.swapaxes(a, -1, -2)
    asym = np.abs(a - at).max(axis=(-2, -1))
    bad = asym > 1e-8 * np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    if np.any(bad):
        raise DomainError(f"psd_sqrt needs a symmetric matrix (defect {np.max(asym[bad]):.3e})")
    w, vec = np.linalg.eigh(0.5 * (a + at))
    low = w[..., 0]
    if np.any(low < -clamp_tol):
        raise DomainError(f"matrix is not PSD: smallest eigenvalue {np.min(low):.3e}")
    w = np.clip(w, 0.0, None)
    return (vec * np.sqrt(w)[..., None, :]) @ np.swapaxes(vec, -1, -2)
