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
    with pytest.raises(ScopeError):
        linalg.min_eig_hermitian([[0, 1], [0, 0]])


def test_psd_pinv():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    psd = a @ a.conj().T  # rank 2
    pinv = linalg.psd_pinv(psd)
    assert np.allclose(pinv, np.linalg.pinv(psd, rcond=1e-10, hermitian=True))
    assert np.allclose(psd @ pinv @ psd, psd)
    assert np.allclose(linalg.psd_pinv(np.diag([4.0, 1e-14, -1e-9])), np.diag([0.25, 0.0, 0.0]))
    assert linalg.psd_pinv(np.zeros((0, 0))).shape == (0, 0)


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
    eig = linalg.eigh_hermitian(h)
    rec = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
    assert np.linalg.norm(rec - h) <= 1e-10 * (1 + np.linalg.norm(h))
    assert np.all(np.diff(eig.eigenvalues) >= 0)
