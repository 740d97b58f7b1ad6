"""Dense complex linear-algebra kernels used throughout the package.

Thin wrappers over numpy.linalg that pin down the contracts the rest of
the code relies on: Hermitian tolerance checks, PSD square roots and
residual-checked solves.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, ScopeError, SizeLimitError

# Soft cap on the side of a dense matrix, and, squared, on the entries of
# coefficient storage: series degrees, and the p^2 d coefficients of a
# Schur-factored T_m, whose side d p is not capped.  Raise via set_max_dim
# for big runs.
MAX_DIM = 4096

HERM_RTOL = 1e-10


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
    """Largest singular value: the LAPACK call of np.linalg.norm(a, 2),
    without its axis handling."""
    a = as_cmatrix(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def check_hermitian(a):
    """The Hermitian part (a + a*)/2 of a square matrix a, checked first:
    ||a - a*||_F <= HERM_RTOL (1 + ||a||_F), tested on a / max|a_ij|."""
    a = as_cmatrix(a)
    if a.shape[0] != a.shape[1]:
        raise InputError(f"matrix {a.shape} is not square")
    top = max(float(np.max(np.abs(a), initial=0.0)), np.finfo(float).tiny)
    u = a / top
    dev = np.linalg.norm(u - adjoint(u))
    if dev > HERM_RTOL * (1.0 / top + np.linalg.norm(u)):
        raise ScopeError(f"matrix is not Hermitian within tolerance (dev={dev * top:.3e})")
    return (a + adjoint(a)) / 2.0


def eigh_hermitian(a):
    """(eigenvalues ascending, unitary eigenvector columns) of the Hermitian
    part of a (checked)."""
    return np.linalg.eigh(check_hermitian(a))


def min_eig_hermitian(a):
    """Smallest eigenvalue of (A + A*)/2; rejects non-Hermitian input.
    Eigenvalues only: no eigenvectors are computed."""
    return float(np.linalg.eigvalsh(check_hermitian(a))[0])


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


def solve(a, b):
    """Solve AX = B with a residual check at 1e-9 ||B||_F."""
    a = as_cmatrix(a)
    b = as_cmatrix(b)
    if a.shape[0] != a.shape[1]:
        raise InputError(f"solve needs a square matrix, got {a.shape}")
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise ScopeError(f"singular system: {exc}") from exc
    resid = np.linalg.norm(a @ x - b)
    if not np.isfinite(resid) or resid > 1e-9 * max(np.linalg.norm(b), 1e-300):
        raise ScopeError(
            f"solve residual {resid:.3e} exceeds 1e-9 ||B||; "
            "system is singular to working tolerance"
        )
    return x
