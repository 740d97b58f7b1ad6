import numpy as np
import pytest

from freefock import linalg
from freefock.errors import ScopeError, SizeLimitError


def test_kron_identities():
    assert np.allclose(linalg.kron(np.eye(2), np.eye(3)), np.eye(6))
    got = linalg.kron([[2.0]], [[0, 1], [0, 0]])
    assert np.allclose(got, [[0, 2], [0, 0]])


def test_kron_block_layout():
    n = np.array([[0, 1], [0, 0]])
    got = linalg.kron(n, np.eye(2))
    want = np.zeros((4, 4))
    want[0:2, 2:4] = np.eye(2)
    assert np.array_equal(got, want)


def test_kron_mixed_product():
    rng = np.random.default_rng(0)
    a, c = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    b, d = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    assert np.allclose(linalg.kron(a, b) @ linalg.kron(c, d), linalg.kron(a @ c, b @ d))


def test_kron_size_limit():
    old = linalg.MAX_DIM
    linalg.set_max_dim(8)
    try:
        with pytest.raises(SizeLimitError):
            linalg.kron(np.eye(3), np.eye(3))
    finally:
        linalg.set_max_dim(old)


def test_operator_norm():
    assert linalg.operator_norm(np.eye(5)) == pytest.approx(1.0)
    assert linalg.operator_norm([[0, 1], [0, 0]]) == pytest.approx(1.0)
    assert linalg.operator_norm([[2, 3], [3, 2]]) == pytest.approx(5.0, rel=1e-12)
    assert linalg.operator_norm(np.zeros((0, 3))) == 0.0


def test_operator_norm_is_numpy_two_norm_bitwise():
    rng = np.random.default_rng(11)
    cases = [np.zeros((1, 1)), np.zeros((4, 4)), np.array([[-2.5]])]
    for shape in [(1, 1), (2, 2), (5, 5), (12, 12), (3, 7), (9, 2)]:
        cases.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        cases.append(rng.standard_normal(shape))
    for a in cases:
        got = linalg.operator_norm(a)
        assert type(got) is float
        assert got == float(np.linalg.norm(np.asarray(a, dtype=complex), 2))


def test_norm_multiplicative_on_kron():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert linalg.operator_norm(linalg.kron(a, b)) == pytest.approx(
        linalg.operator_norm(a) * linalg.operator_norm(b), rel=1e-9
    )


def test_min_eig_hermitian():
    assert linalg.min_eig_hermitian([[2, 1], [1, 2]]) == pytest.approx(1.0, abs=1e-12)
    assert linalg.min_eig_hermitian([[2, 3], [3, 2]]) == pytest.approx(-1.0, abs=1e-12)
    assert linalg.min_eig_hermitian(np.zeros((3, 3))) == 0.0
    rng = np.random.default_rng(5)
    g = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    b = rng.standard_normal((40, 7)) + 1j * rng.standard_normal((40, 7))
    for a in (g + g.conj().T, b @ b.conj().T):  # random Hermitian; PSD of rank 7
        want = np.linalg.eigh(a)[0][0]
        tol = 1e-12 * (1.0 + np.linalg.norm(a, 2))
        assert linalg.min_eig_hermitian(a) == pytest.approx(want, abs=tol)
    with pytest.raises(ScopeError):
        linalg.min_eig_hermitian([[0, 1], [0, 0]])


def test_check_hermitian_is_scale_invariant():
    # ||a - a*|| <= rtol (1 + ||a||), with no square formed: 1e200 i overflowed it
    skew = np.array([[1.0, 2.0], [0.0, 1.0 + 1e-3j]])
    for e in (-5, 0, 100, 200, 300):
        with pytest.raises(ScopeError):
            linalg.check_hermitian(skew * 10.0**e)
        herm = np.array([[1.0, 2.0 - 1e-3j], [2.0 + 1e-3j, -1.0]]) * 10.0**e
        assert linalg.check_hermitian(herm) is not None
    # below the absolute part of the tolerance every matrix passes, as before
    linalg.check_hermitian(skew * 1e-300)
    linalg.check_hermitian(1e-12j * np.eye(2))
    linalg.check_hermitian(np.zeros((2, 2)))


def test_solve():
    rng = np.random.default_rng(4)
    b = rng.standard_normal((2, 2))
    assert np.allclose(linalg.solve(np.eye(2), b), b)
    assert np.allclose(linalg.solve(np.diag([2.0, 4.0]), np.eye(2)), np.diag([0.5, 0.25]))
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(linalg.solve(np.eye(2) - n, np.eye(2)), np.eye(2) + n)
    with pytest.raises(ScopeError):
        linalg.solve(np.zeros((2, 2)), np.eye(2))


def test_solve_roundtrip_residual():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) + 3 * np.eye(6)
    b = rng.standard_normal((6, 2))
    x = linalg.solve(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-9 * np.linalg.norm(b)


def test_hermitian_eig_reconstruction():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = a + a.conj().T
    w, v = linalg.eigh_hermitian(h)
    rec = (v * w) @ v.conj().T
    assert np.linalg.norm(rec - h) <= 1e-10 * (1 + np.linalg.norm(h))
    assert np.all(np.diff(w) >= 0)
