"""Multi-Toeplitz matrices on the graded word basis: validation of symbol
coefficients, and assembly of T_m from them through the creation
operators' index maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .fock import get_trunc, shift_sum
from .linalg import adjoint, as_cmatrix, check_hermitian, min_eig_hermitian
from .words import GradedBasis, validate_word


@dataclass
class MultiToeplitzMatrix:
    n: int
    m: int
    block_size: int
    basis: GradedBasis
    entries: np.ndarray  # coefficient-major on C^p (x) P^(m)

    def block(self, a, b):
        p, d = self.block_size, self.basis.size
        e4 = self.entries.reshape(p, d, p, d)
        return e4[:, a, :, b].copy()

    def min_eig(self):
        return min_eig_hermitian(self.entries)


def validate_coeffs(coeffs, n, m, require_b0=True):
    """Coefficients keyed by word tuples, as square complex matrices of one
    size p, with words over n letters of length <= m; returns (coeffs, p),
    p None when there are none."""
    out = {}
    p = None
    for w, c in coeffs.items():
        w = tuple(w)
        validate_word(w, n)
        if len(w) > m:
            raise InputError(f"coefficient word longer than degree {m}")
        c = as_cmatrix(c)
        if p is None:
            p = c.shape[0]
        if c.shape != (p, p):
            raise InputError("coefficients must be square matrices of one size")
        out[w] = c
    if require_b0 and () not in out:
        raise InputError("missing constant coefficient b_0")
    return out, p


def assemble_T(coeffs, n, m):
    """T_m = sum b_a* (x) (S_a^(m))* + b_0 (x) I + sum b_a (x) S_a^(m).

    b_0 must be Hermitian; the result is then Hermitian by construction.
    Each b_a is written straight into the blocks (a beta, beta) that S_a
    reaches, and its adjoint into the mirrored ones (fock.shift_sum); no
    two words share a block, so the entries equal the Kronecker sum exactly.
    """
    coeffs, p = validate_coeffs(coeffs, n, m)
    check_hermitian(coeffs[()])
    ft = get_trunc(n, m)
    upper = {w: adjoint(c) for w, c in coeffs.items() if w}
    out = shift_sum(ft, p, coeffs, upper, ft.prepend_indices)
    return MultiToeplitzMatrix(n, m, p, ft.basis, out)


def min_eig(T):
    """Smallest eigenvalue of a (Hermitian) multi-Toeplitz matrix."""
    return T.min_eig()
