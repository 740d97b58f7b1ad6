"""Multi-Toeplitz matrices on the graded word basis: T_m of a square free
series of symbol coefficients, assembled through the creation operators'
index maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .fock import get_trunc, shift_sum
from .linalg import adjoint, check_hermitian, min_eig_hermitian
from .words import GradedBasis


@dataclass
class MultiToeplitzMatrix:
    n: int
    m: int
    block_size: int
    basis: GradedBasis
    entries: np.ndarray  # coefficient-major on C^p (x) P^(m)

    def min_eig(self):
        return min_eig_hermitian(self.entries)


def assemble_T(f):
    """T_m = sum b_a* (x) (S_a^(m))* + b_0 (x) I + sum b_a (x) S_a^(m) for a
    square series f of the b_a, with m = f.cutoff.

    b_0 must be Hermitian; the result is then Hermitian by construction.
    Each b_a is written straight into the blocks (a beta, beta) that S_a
    reaches, and its adjoint into the mirrored ones (fock.shift_sum); no
    two words share a block, so the entries equal the Kronecker sum exactly.
    """
    if not f.is_square():
        raise InputError(f"multi-Toeplitz matrices need square coefficients, got {f.shape}")
    check_hermitian(f.constant_term())
    p, coeffs = f.shape[0], f.coeffs
    ft = get_trunc(f.n, f.cutoff)
    upper = {w: adjoint(c) for w, c in coeffs.items() if w}
    out = shift_sum(ft, p, coeffs, upper, ft.prepend_indices)
    return MultiToeplitzMatrix(f.n, f.cutoff, p, ft.basis, out)
