import numpy as np
import pytest

from freefock import toeplitz as tp
from freefock.errors import InputError
from freefock.linalg import adjoint
from freefock.words import GradedBasis

ONE = np.array([[1.0]])


def scalar_coeffs(mapping):
    return {w: np.array([[c]]) for w, c in mapping.items()}


def random_coeffs(rng, n, m, p, selfadjoint_b0=True):
    out = {}
    for w in GradedBasis(n, m).words:
        c = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        if not w and selfadjoint_b0:
            c = (c + adjoint(c)) / 2.0
        out[w] = c
    return out


def test_assemble_T_classical():
    t = tp.assemble_T(scalar_coeffs({(): 2.0, (1,): 1.0}), 1, 1)
    assert np.allclose(t.entries, [[2.0, 1.0], [1.0, 2.0]])


def test_assemble_T_two_generators():
    c = 0.3 + 0.4j
    t = tp.assemble_T(scalar_coeffs({(): 1.0, (1,): c, (2,): c}), 2, 1)
    want = np.array(
        [[1.0, np.conj(c), np.conj(c)], [c, 1.0, 0.0], [c, 0.0, 1.0]], dtype=complex
    )
    assert np.allclose(t.entries, want)


def test_assemble_T_diagonal_only():
    rng = np.random.default_rng(0)
    b0 = rng.standard_normal((2, 2))
    b0 = b0 + b0.T
    t = tp.assemble_T({(): b0}, 2, 2)
    assert np.allclose(t.entries, np.kron(b0, np.eye(7)))
    with pytest.raises(InputError):
        tp.assemble_T({(1,): np.eye(2)}, 2, 2)  # b_0 missing


def test_assemble_kernel_matches_assemble_T():
    rng = np.random.default_rng(1)
    for k in range(100):
        n = 1 + k % 3
        m = 1 + k % 3
        p = 1 + k % 2
        coeffs = random_coeffs(rng, n, m, p)
        a = tp.assemble_T(coeffs, n, m).entries
        b = tp.assemble_kernel(coeffs, n, m).entries
        assert np.max(np.abs(a - b)) <= 1e-14


def test_assemble_classical_toeplitz():
    coeffs = scalar_coeffs({(): 1.0, (1,): 0.5, (1, 1): 0.25})
    t = tp.assemble_kernel(coeffs, 1, 2)
    want = np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1.0]])
    # classical Hermitian Toeplitz with first column (1, .5, .25)
    assert np.allclose(t.entries, want.T)


def test_assemble_nesting():
    rng = np.random.default_rng(2)
    n, p = 2, 2
    coeffs = random_coeffs(rng, n, 2, p)
    big = tp.assemble_T(coeffs, n, 3)
    small = tp.assemble_T(coeffs, n, 2)
    dim_small = GradedBasis(n, 2).size
    dim_big = GradedBasis(n, 3).size
    idx = np.concatenate([np.arange(dim_small) + i * dim_big for i in range(p)])
    compressed = big.entries[np.ix_(idx, idx)]
    assert np.max(np.abs(compressed - small.entries)) == 0.0


def test_min_eig():
    t = tp.assemble_T(scalar_coeffs({(): 2.0, (1,): 1.0}), 1, 1)
    assert tp.min_eig(t) == pytest.approx(1.0, abs=1e-12)
    t = tp.assemble_T(scalar_coeffs({(): 2.0, (1,): 3.0}), 1, 1)
    assert tp.min_eig(t) == pytest.approx(-1.0, abs=1e-12)

    b0 = np.diag([3.0, 0.5])
    t = tp.assemble_T({(): b0}, 2, 1)
    assert tp.min_eig(t) == pytest.approx(0.5, abs=1e-12)
