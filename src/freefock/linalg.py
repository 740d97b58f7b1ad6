"""Dense complex linear-algebra kernels used throughout the package.

Thin wrappers over numpy.linalg that pin down the contracts the rest of
the code relies on: Hermitian tolerance checks, PSD square roots and
pseudo-inverses, and residual-checked solves.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InputError, ScopeError, SizeLimitError

# Soft cap on matrix side length; raise via set_max_dim for big runs.
MAX_DIM = 4096

HERM_RTOL = 1e-10

# psd_pinv treats eigenvalues at or below this fraction of the largest as
# zero: well above roundoff, so an exact kernel stays a kernel.
PINV_RTOL = 1e-12


def set_max_dim(limit):
    global MAX_DIM
    if limit < 1:
        raise InputError("size limit must be positive")
    MAX_DIM = int(limit)


def as_cmatrix(a):
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise InputError(f"expected a matrix, got ndim={m.ndim}")
    return m


def adjoint(a):
    return np.conj(a.T)


def check_size(rows, cols, what):
    """Raise SizeLimitError before a rows x cols result is allocated
    whose side exceeds the configured cap."""
    if max(rows, cols) > MAX_DIM:
        raise SizeLimitError(f"{what} result {rows}x{cols} exceeds size limit {MAX_DIM}")


def check_entries(count, what):
    """Raise SizeLimitError before a result of count entries is allocated
    that holds more than the largest matrix check_size admits."""
    if count > MAX_DIM**2:
        raise SizeLimitError(f"{what} needs up to {count} entries, over size limit {MAX_DIM}^2")


def kron(a, b):
    """Kronecker product with the configured size cap."""
    a = as_cmatrix(a)
    b = as_cmatrix(b)
    check_size(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1], "kron")
    return np.kron(a, b)


def operator_norm(a):
    """Largest singular value."""
    a = as_cmatrix(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def check_hermitian(a, rtol=HERM_RTOL):
    a = as_cmatrix(a)
    if a.shape[0] != a.shape[1]:
        raise InputError(f"matrix {a.shape} is not square")
    dev = np.linalg.norm(a - adjoint(a))
    if dev > rtol * (1.0 + np.linalg.norm(a)):
        raise ScopeError(f"matrix is not Hermitian within tolerance (dev={dev:.3e})")
    return a


class HermitianEig(NamedTuple):
    eigenvalues: np.ndarray  # real, ascending
    eigenvectors: np.ndarray  # unitary, columns


def eigh_hermitian(a, rtol=HERM_RTOL):
    """Eigendecomposition of the Hermitian part of a (checked)."""
    a = check_hermitian(a, rtol)
    return HermitianEig(*np.linalg.eigh((a + adjoint(a)) / 2.0))


def min_eig_hermitian(a, rtol=HERM_RTOL):
    """Smallest eigenvalue of (A + A*)/2; rejects non-Hermitian input.
    Eigenvalues only: no eigenvectors are computed."""
    a = check_hermitian(a, rtol)
    return float(np.linalg.eigvalsh((a + adjoint(a)) / 2.0)[0])


def psd_pinv(a):
    """Pseudo-inverse of a Hermitian PSD matrix.

    Eigenvalues at or below PINV_RTOL times the largest, negative ones
    (roundoff, or data feasible only within tolerance) and subnormal ones,
    whose reciprocals overflow, count as zero.
    """
    w, v = eigh_hermitian(a)
    keep = w > max(PINV_RTOL * w.max(initial=0.0), np.finfo(float).tiny)
    v = v[:, keep]
    return (v / w[keep]) @ adjoint(v)


def hermitian_sqrt(a, clamp=1e-12):
    """PSD square root via eigendecomposition.

    Eigenvalues in [-clamp, 0) are treated as roundoff and clamped to 0;
    anything more negative is rejected.
    """
    w, v = eigh_hermitian(a)
    if w[0] < -clamp * max(1.0, abs(w[-1])):
        raise ScopeError(f"matrix is not PSD (min eig {w[0]:.3e}); no real square root")
    w = np.sqrt(np.maximum(w, 0.0))
    return (v * w) @ adjoint(v)


def solve(a, b, rtol=1e-9):
    """Solve AX = B with a residual check at rtol * ||B||_F."""
    a = as_cmatrix(a)
    b = as_cmatrix(b)
    if a.shape[0] != a.shape[1]:
        raise InputError(f"solve needs a square matrix, got {a.shape}")
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise ScopeError(f"singular system: {exc}") from exc
    resid = np.linalg.norm(a @ x - b)
    if not np.isfinite(resid) or resid > rtol * max(np.linalg.norm(b), 1e-300):
        raise ScopeError(
            f"solve residual {resid:.3e} exceeds {rtol:.1e} * ||B||; "
            "system is singular to working tolerance"
        )
    return x
