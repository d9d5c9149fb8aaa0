"""Dense linear algebra for small square matrices.

Everything in this module operates on real square matrices of modest
dimension (couplings rarely need d > 8) and is deterministic: the same
input yields bit-identical output on repeated calls.  The decompositions
are delegated to LAPACK via numpy; what this module adds is a fixed SVD
sign convention, tolerance handling that the rest of the package agrees
on, and the two membership tests used throughout (correlation-class and
orthogonality).

The correlation class consists of the d x d matrices C for which the
2d x 2d block matrix [[I, C], [C^T, I]] is positive semi-definite;
equivalently, all singular values of C are at most 1.  Orthogonal
matrices are the extreme points of that class, and the trace-maximising
rotation below realises the maximum of Tr(A C) over the whole class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError

__all__ = [
    "SvdResult",
    "svd",
    "pseudoinverse",
    "projection_range",
    "kernel_dim",
    "correlation_margin",
    "is_correlation",
    "orthogonality_defect",
    "is_orthogonal",
    "trace_max_rotation",
    "rotation_grid_max",
    "psd_sqrt",
]

#: Relative threshold below which singular values are treated as zero.
DEFAULT_RANK_TOL = 1e-10

#: Default tolerance for the correlation / orthogonality membership tests.
MEMBERSHIP_TOL = 1e-8


def _as_square(a, name="matrix"):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square 2-d, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class SvdResult:
    """Singular value decomposition A = U @ diag(S) @ V.T.

    U and V are orthogonal, S is sorted in descending order, and the
    sign convention below makes the factorisation deterministic.
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.S) @ self.V.T


def svd(a) -> SvdResult:
    """Deterministic SVD of a square matrix.

    Sign convention: the first entry of each column of U whose magnitude
    exceeds 1e-12 is made nonnegative (the matching column of V is
    flipped along with it, so the product is unchanged).  This removes
    the per-column sign ambiguity of the factorisation; ties beyond that
    (exactly repeated singular values) are resolved however LAPACK
    resolves them, which is deterministic for a fixed input.
    """
    a = _as_square(a)
    u, s, vh = np.linalg.svd(a)
    v = vh.T
    for j in range(u.shape[1]):
        col = u[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0.0:
            u[:, j] = -col
            v[:, j] = -v[:, j]
    return SvdResult(U=u, S=s, V=v)


def pseudoinverse(a, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with a relative rank cutoff.

    Singular values at or below ``rank_tol`` times the largest singular
    value are treated as exact zeros.
    """
    res = svd(a)
    cutoff = rank_tol * (res.S[0] if res.S.size else 0.0)
    inv = np.divide(1.0, res.S, out=np.zeros_like(res.S), where=res.S > cutoff)
    return (res.V * inv) @ res.U.T


def projection_range(a, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthogonal projection P = pinv(A) @ A onto the row space of A.

    P is symmetric and idempotent; I - P projects onto the kernel of A.
    """
    res = svd(a)
    cutoff = rank_tol * (res.S[0] if res.S.size else 0.0)
    mask = res.S > cutoff
    vr = res.V[:, mask]
    return vr @ vr.T


def kernel_dim(a, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Dimension of the kernel of A, via the singular value profile."""
    a = _as_square(a)
    s = np.linalg.svd(a, compute_uv=False)
    cutoff = rank_tol * (s[0] if s.size else 0.0)
    return int(a.shape[0] - np.count_nonzero(s > cutoff))


def _block_extension(c):
    """[[I, C], [C^T, I]] for one matrix or a batch of matrices."""
    c = np.asarray(c, dtype=float)
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
    c = np.asarray(c, dtype=float)
    if c.ndim < 2 or c.shape[-1] != c.shape[-2]:
        raise DimensionError(f"expected (..., d, d) matrices, got shape {c.shape}")
    ev = np.linalg.eigvalsh(_block_extension(c))
    out = ev[..., 0]
    return float(out) if out.ndim == 0 else out


def is_correlation(c, tol: float = MEMBERSHIP_TOL) -> bool:
    """Whether the block extension of C is PSD within ``tol``.

    For a batch (..., d, d), every member must qualify.
    """
    return bool(np.min(correlation_margin(c)) >= -tol)


def orthogonality_defect(q) -> np.ndarray | float:
    """Max-norm of Q^T Q - I for one matrix or a batch.

    A batch is handled entry by entry of the symmetric Gram matrix with
    elementwise arithmetic over the batch, far cheaper for small d than
    stacked tiny matrix products.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim < 2 or q.shape[-1] != q.shape[-2]:
        raise DimensionError(f"expected (..., d, d) matrices, got shape {q.shape}")
    d = q.shape[-1]
    if q.ndim == 2:
        return float(np.abs(q.T @ q - np.eye(d)).max())
    out = np.zeros(q.shape[:-2])
    for i in range(d):
        for j in range(i, d):
            gram = q[..., 0, i] * q[..., 0, j]
            for r in range(1, d):
                gram += q[..., r, i] * q[..., r, j]
            if i == j:
                gram -= 1.0
            np.maximum(out, np.abs(gram), out=out)
    return out


def is_orthogonal(q, tol: float = MEMBERSHIP_TOL) -> bool:
    """Whether max |(Q^T Q - I)_ij| <= tol.

    For a batch (..., d, d), every member must qualify.
    """
    return bool(np.max(orthogonality_defect(q)) <= tol)


def trace_max_rotation(a) -> tuple[np.ndarray, float]:
    """Orthogonal maximiser of Tr(A Q) and the attained value.

    With A = U diag(S) V^T, the maximiser is Q* = V U^T and the value is
    the sum of the singular values.  The same value bounds Tr(A C) over
    the whole correlation class, so Q* is also optimal over that larger
    set.  Q* is unique whenever A is invertible; for singular A any
    maximiser may be returned, deterministically for a fixed input.
    """
    res = svd(a)
    return res.V @ res.U.T, float(res.S.sum())


def trace_max_rotation_batch(a) -> tuple[np.ndarray, np.ndarray]:
    """Batched trace_max_rotation over matrices shaped (..., d, d).

    Returns (Q, value) with Q shaped like the input and value shaped
    like the batch.  No sign convention is applied: V @ U^T is invariant
    under the paired column flips.
    """
    a = np.asarray(a, dtype=float)
    u, s, vh = np.linalg.svd(a)
    q = np.swapaxes(vh, -1, -2) @ np.swapaxes(u, -1, -2)
    return q, s.sum(axis=-1)


def rotation_grid_max(a, n_points: int = 10_000) -> tuple[np.ndarray, float]:
    """Brute-force maximum of Tr(A Q) over O(2) on an angle grid.

    The orthogonal group in dimension 2 splits into rotations R(t) and
    reflections R(t) @ diag(1, -1); both branches are scanned over
    ``n_points`` equally spaced angles.  Only valid for 2 x 2 input.
    Serves as an independent cross-check of :func:`trace_max_rotation`;
    with 10^4 grid points the value is accurate to about 1e-6 near a
    smooth maximum.
    """
    a = _as_square(a)
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
    """
    a = _as_square(a)
    asym = np.abs(a - a.T).max()
    if asym > 1e-8 * max(1.0, np.abs(a).max()):
        raise DomainError(f"psd_sqrt needs a symmetric matrix (defect {asym:.3e})")
    w, vec = np.linalg.eigh(0.5 * (a + a.T))
    if w[0] < -clamp_tol:
        raise DomainError(f"matrix is not PSD: smallest eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    return (vec * np.sqrt(w)) @ vec.T


def _psd_sqrt_batch(a, clamp_tol: float = 1e-6):
    """Batched PSD square root for (..., d, d) symmetric matrices.

    Used in per-step coupling loops where the input is PSD by
    construction up to the membership tolerance, hence the looser
    default clamp.
    """
    a = np.asarray(a, dtype=float)
    w, vec = np.linalg.eigh(0.5 * (a + np.swapaxes(a, -1, -2)))
    if w.min() < -clamp_tol:
        raise DomainError(f"batch is not PSD: smallest eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    return (vec * np.sqrt(w)[..., None, :]) @ np.swapaxes(vec, -1, -2)
