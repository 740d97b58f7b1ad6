import numpy as np
import pytest

from freefock import toeplitz as tp
from freefock.errors import InputError
from freefock.linalg import adjoint
from freefock.series import FreeSeries
from freefock.words import GradedBasis, right_quotient

ONE = np.array([[1.0]])


def scalar_coeffs(mapping):
    return {w: np.array([[c]]) for w, c in mapping.items()}


def assemble(coeffs, n, m):
    """assemble_T of the series of coeffs, with the shape of b_0."""
    return tp.assemble_T(FreeSeries(n, m, coeffs[()].shape, coeffs))


def random_coeffs(rng, n, m, p, selfadjoint_b0=True):
    out = {}
    for w in GradedBasis(n, m).words:
        c = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        if not w and selfadjoint_b0:
            c = (c + adjoint(c)) / 2.0
        out[w] = c
    return out


def assemble_kernel(coeffs, n, m):
    """Oracle: T_m entrywise from the right-divisibility kernel, block
    (a, b) = b_{a \\ b} when a >_r b, its adjoint when b >_r a, b_0 on
    the diagonal, zero otherwise; coefficient-major entries."""
    p = coeffs[()].shape[0]
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
                if s in coeffs:
                    b4[a, b] = coeffs[s]
            else:
                s = right_quotient(wb, wa)
                if s is not None and s in coeffs:
                    b4[a, b] = adjoint(coeffs[s])
    return b4.transpose(2, 0, 3, 1).reshape(d * p, d * p)


def test_assemble_T_classical():
    t = assemble(scalar_coeffs({(): 2.0, (1,): 1.0}), 1, 1)
    assert np.allclose(t.entries, [[2.0, 1.0], [1.0, 2.0]])


def test_assemble_T_two_generators():
    c = 0.3 + 0.4j
    t = assemble(scalar_coeffs({(): 1.0, (1,): c, (2,): c}), 2, 1)
    want = np.array(
        [[1.0, np.conj(c), np.conj(c)], [c, 1.0, 0.0], [c, 0.0, 1.0]], dtype=complex
    )
    assert np.allclose(t.entries, want)


def test_assemble_T_diagonal_only():
    rng = np.random.default_rng(0)
    b0 = rng.standard_normal((2, 2))
    b0 = b0 + b0.T
    t = assemble({(): b0}, 2, 2)
    assert np.allclose(t.entries, np.kron(b0, np.eye(7)))
    with pytest.raises(InputError):
        tp.assemble_T(FreeSeries(2, 2, (2, 1), {(): np.ones((2, 1))}))  # not square


def test_assemble_kernel_matches_assemble_T():
    rng = np.random.default_rng(1)
    for k in range(100):
        n = 1 + k % 3
        m = 1 + k % 3
        p = 1 + k % 2
        coeffs = random_coeffs(rng, n, m, p)
        a = assemble(coeffs, n, m).entries
        b = assemble_kernel(coeffs, n, m)
        assert np.max(np.abs(a - b)) <= 1e-14


def test_assemble_classical_toeplitz():
    coeffs = scalar_coeffs({(): 1.0, (1,): 0.5, (1, 1): 0.25})
    t = assemble_kernel(coeffs, 1, 2)
    want = np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1.0]])
    # classical Hermitian Toeplitz with first column (1, .5, .25)
    assert np.allclose(t, want.T)
    assert np.allclose(assemble(coeffs, 1, 2).entries, want.T)


def test_assemble_nesting():
    rng = np.random.default_rng(2)
    n, p = 2, 2
    coeffs = random_coeffs(rng, n, 2, p)
    big = assemble(coeffs, n, 3)
    small = assemble(coeffs, n, 2)
    dim_small = GradedBasis(n, 2).size
    dim_big = GradedBasis(n, 3).size
    idx = np.concatenate([np.arange(dim_small) + i * dim_big for i in range(p)])
    compressed = big.entries[np.ix_(idx, idx)]
    assert np.max(np.abs(compressed - small.entries)) == 0.0


def test_min_eig():
    t = assemble(scalar_coeffs({(): 2.0, (1,): 1.0}), 1, 1)
    assert t.min_eig() == pytest.approx(1.0, abs=1e-12)
    t = assemble(scalar_coeffs({(): 2.0, (1,): 3.0}), 1, 1)
    assert t.min_eig() == pytest.approx(-1.0, abs=1e-12)

    b0 = np.diag([3.0, 0.5])
    t = assemble({(): b0}, 2, 1)
    assert t.min_eig() == pytest.approx(0.5, abs=1e-12)
