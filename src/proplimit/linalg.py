"""Dense linear algebra kernels used throughout the package.

Everything operates on plain float64 ``numpy.ndarray`` values.  Symmetric
positive definite (SPD) arguments are validated on entry: inputs are
symmetrized as ``A/2 + A.T/2`` (halved before adding, so finite entries
cannot overflow) and rejected if the asymmetry exceeds a relative
tolerance, which guards against drift accumulating over long Monte Carlo
loops.  Determinants of SPD matrices are only ever computed in
log space through a Cholesky factor so that large mixtures cannot overflow.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter, NotPositiveDefinite, ShapeMismatch

# Relative pivot tolerance: a Cholesky pivot at or below
# PIVOT_RTOL * max(diag(A)) means "numerically not positive definite".
PIVOT_RTOL = 1e-12

# Maximum allowed relative asymmetry for SPD inputs.
SYMMETRY_RTOL = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d float64 array with finite entries."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim == 1:
        out = out[:, None]
    if out.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-d, got ndim={out.ndim}")
    if out.size and not np.isfinite(out).all():
        raise InvalidParameter(f"{name} contains non-finite entries")
    return out


def symmetrize(a, name: str = "matrix") -> np.ndarray:
    """Return ``A/2 + A.T/2`` after checking A is square and nearly symmetric.

    ``a`` may also be a stack of shape ``(n, m, m)``; each matrix in it is
    checked on its own and the first offender is named in the error.

    Raises
    ------
    ShapeMismatch
        If ``a`` is not square.
    InvalidParameter
        If an entry is non-finite, or the relative asymmetry
        ``max|A - A.T| / max|A|`` exceeds ``SYMMETRY_RTOL``.
    """
    out = _square(a, name)
    if out.size == 0:
        return out
    scale = np.abs(out).max(axis=(-2, -1))
    gap = np.abs(out - _t(out)).max(axis=(-2, -1))
    bad = np.flatnonzero(gap > SYMMETRY_RTOL * np.maximum(scale, 1e-300))
    if bad.size:
        i = int(bad[0])
        where = f"{name}[{i}]" if out.ndim == 3 else name
        raise InvalidParameter(
            f"{where} is not symmetric: asymmetry {gap.flat[i]:.3e} exceeds "
            f"{SYMMETRY_RTOL:.1e} * {scale.flat[i]:.3e}"
        )
    return 0.5 * out + 0.5 * _t(out)


def _square(a, name: str) -> np.ndarray:
    """A finite float64 square matrix, or a stack ``(n, m, m)`` of them."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim == 3:
        if out.size and not np.isfinite(out).all():
            raise InvalidParameter(f"{name} contains non-finite entries")
    else:
        out = as_matrix(out, name)
    n, m = out.shape[-2:]
    if n != m:
        raise ShapeMismatch(f"{name} must be square, got {n}x{m}")
    return out


def _t(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -2, -1)


def cholesky(a, name: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor L with L @ L.T == A.

    The input is symmetrized first; a stack ``(n, m, m)`` is factored
    matrix by matrix in one call.  Fails loudly instead of returning a
    garbage factor: any pivot at or below ``PIVOT_RTOL * max(diag(A))``
    raises :class:`NotPositiveDefinite`.
    """
    sym = symmetrize(a, name=name)
    if sym.shape[-1] == 0:
        return sym.copy()
    max_diag = np.diagonal(sym, axis1=-2, axis2=-1).max(axis=-1)
    if not (max_diag > 0.0).all():
        raise NotPositiveDefinite(f"{name}: maximum diagonal entry is not positive")
    try:
        low = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{name}: {exc}") from exc
    # LAPACK accepts any positive pivot; enforce the relative tolerance.
    pivots = np.diagonal(low, axis1=-2, axis2=-1).min(axis=-1) ** 2
    bad = np.flatnonzero(pivots <= PIVOT_RTOL * max_diag)
    if bad.size:
        i = int(bad[0])
        where = f"{name}[{i}]" if sym.ndim == 3 else name
        raise NotPositiveDefinite(
            f"{where}: pivot {pivots.flat[i]:.3e} below tolerance "
            f"{PIVOT_RTOL:.1e} * {max_diag.flat[i]:.3e}"
        )
    return low


def kron(a, b) -> np.ndarray:
    """Kronecker product: block (i, j) of the result equals ``a[i, j] * b``."""
    return np.kron(as_matrix(a, "a"), as_matrix(b, "b"))


def pinv(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``max(sigma) * max(rows, cols) * eps`` are treated
    as zero (standard rank-revealing cutoff).  A rank-0 input returns the
    zero matrix of the transposed shape.
    """
    mat = as_matrix(a, "a")
    if mat.size == 0:
        return mat.T.copy()
    rcond = max(mat.shape) * np.finfo(np.float64).eps
    return np.linalg.pinv(mat, rcond=rcond)


def logdet_spd(a) -> float:
    """log det A for SPD A, computed as ``2 * sum(log(diag(L)))``.

    Never forms the raw determinant, so it cannot overflow for large
    well-conditioned matrices.
    """
    low = cholesky(a)
    if low.shape[0] == 0:
        return 0.0
    return float(2.0 * np.sum(np.log(np.diag(low))))
