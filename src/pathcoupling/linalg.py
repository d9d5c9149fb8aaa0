"""Dense linear algebra for small square matrices.

Everything in this module operates on real square matrices of modest
dimension (couplings rarely need d > 8) and is deterministic: the same
input yields bit-identical output on repeated calls.  The decompositions
are delegated to LAPACK via numpy; what this module adds is tolerance
handling that the rest of the package agrees on (one rank rule, one PSD
clamp), the trace-maximising rotation, the pinv/kernel-projector pair
and the two membership tests used throughout (correlation-class and
orthogonality).

One batching rule: every kernel takes matrices shaped (..., d, d) - one
(d, d) matrix or any batch of them - with one body for both, and a batch
gives bit for bit the results of per-matrix calls.  Whether a coefficient
is shared by all paths or given per path is decided only by the step
kernels' ``sde._apply``, ``sde._solve`` and ``sde.ValueMemo``.

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
    "is_correlation",
    "orthogonality_defect",
    "is_orthogonal",
    "trace_max_rotation",
    "rotation_grid_max",
    "psd_sqrt",
]

#: Relative threshold below which singular values are treated as zero (the rank rule).
DEFAULT_RANK_TOL = 1e-10

#: Tolerance of the correlation / orthogonality membership tests.
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


def kernel_dim(a) -> np.ndarray | int:
    """Dimension of the kernel of A: the singular values the rank rule drops.

    An int for one matrix, an integer array shaped like the batch otherwise.
    """
    s = np.linalg.svd(_finite_square(a), compute_uv=False)
    return _scalar_or_batch((~_kept(s)).sum(axis=-1))


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
    ev = np.linalg.eigvalsh(_block_extension(_square(c)))
    return _scalar_or_batch(ev[..., 0])


def is_correlation(c, tol: float = MEMBERSHIP_TOL) -> bool:
    """Whether the block extension of C is PSD within ``tol``.

    For a batch (..., d, d), every member must qualify.
    """
    return bool(np.min(correlation_margin(c)) >= -tol)


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


def is_orthogonal(q, tol: float = MEMBERSHIP_TOL) -> bool:
    """Whether max |(Q^T Q - I)_ij| <= tol.

    For a batch (..., d, d), every member must qualify.
    """
    return bool(np.max(orthogonality_defect(q)) <= tol)


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
