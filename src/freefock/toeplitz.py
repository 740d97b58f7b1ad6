"""Multi-Toeplitz matrices on the graded word basis: validation of symbol
coefficients, and assembly of T_m from them (through the creation
operators, and entrywise from the right-divisibility kernel).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .fock import get_trunc
from .linalg import adjoint, as_cmatrix, check_hermitian, kron, min_eig_hermitian
from .words import GradedBasis, right_quotient, validate_word


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
    reaches, and its adjoint into the mirrored ones; no two words share a
    block, so the entries equal the Kronecker sum exactly.
    """
    coeffs, p = validate_coeffs(coeffs, n, m)
    check_hermitian(coeffs[()])
    ft = get_trunc(n, m)
    out = kron(coeffs[()], np.eye(ft.dim, dtype=complex))
    out4 = out.reshape(p, ft.dim, p, ft.dim)
    for w, c in coeffs.items():
        if w:
            src, dst = ft.prepend_indices(w)
            out4[:, dst, :, src] = c
            out4[:, src, :, dst] = adjoint(c)
    return MultiToeplitzMatrix(n, m, p, ft.basis, out)


def assemble_kernel(coeffs, n, m):
    """The same matrix assembled entrywise from the right-divisibility
    kernel: block (a, b) = b_{a \\ b} when a >_r b, its adjoint when
    b >_r a, b_0 on the diagonal, zero otherwise."""
    coeffs, p = validate_coeffs(coeffs, n, m)
    basis = GradedBasis(n, m)
    d = basis.size
    b4 = np.zeros((d, d, p, p), dtype=complex)
    for a, wa in enumerate(basis.words):
        for b, wb in enumerate(basis.words):
            if a == b:
                b4[a, b] = coeffs[()]
                continue
            s = right_quotient(wa, wb)
            if s is not None:
                c = coeffs.get(s)
                if c is not None:
                    b4[a, b] = c
            else:
                s = right_quotient(wb, wa)
                if s is not None:
                    c = coeffs.get(s)
                    if c is not None:
                        b4[a, b] = adjoint(c)
    entries = b4.transpose(2, 0, 3, 1).reshape(d * p, d * p)
    return MultiToeplitzMatrix(n, m, p, basis, entries)


def min_eig(T):
    """Smallest eigenvalue of a (Hermitian) multi-Toeplitz matrix."""
    return T.min_eig()
