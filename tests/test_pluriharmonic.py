import numpy as np
import pytest

from freefock import pluriharmonic as ph
from freefock import series as fs
from freefock.errors import InputError, ScopeError
from freefock.fock import OperatorTuple, get_trunc, random_nilpotent_tuple
from freefock.linalg import adjoint, kron, min_eig_hermitian, operator_norm
from freefock.words import GradedBasis

ONE = np.array([[1.0]])


def scalar_series(n, cutoff, coeffs):
    return fs.FreeSeries(n, cutoff, (1, 1), {w: np.array([[c]]) for w, c in coeffs.items()})


def symbol(n, cutoff, analytic, coanalytic, shape=(1, 1)):
    series = (fs.FreeSeries(n, cutoff, shape, c) for c in (analytic, coanalytic))
    return ph.PluriharmonicFn(*series)


def halfz_example():
    """1 + (Z + Z*)/2 as a pluriharmonic function (n = 1)."""
    return symbol(1, 1, {(): ONE, (1,): 0.5 * ONE}, {(1,): 0.5 * ONE})


def test_constructor_checks_the_two_series():
    a = fs.FreeSeries(1, 2, (1, 1), {(): ONE})
    for b in (
        fs.FreeSeries(2, 2, (1, 1), {}),  # n differs
        fs.FreeSeries(1, 1, (1, 1), {}),  # cutoff differs
        fs.FreeSeries(1, 2, (1, 2), {}),  # shape differs
        fs.FreeSeries(1, 2, (1, 1), {(): ONE}),  # B has a constant term
    ):
        with pytest.raises(InputError):
            ph.PluriharmonicFn(a, b)
    wide = fs.FreeSeries(1, 2, (1, 2), {})
    with pytest.raises(InputError):
        ph.PluriharmonicFn(wide, wide)
    h = ph.PluriharmonicFn(a, fs.FreeSeries(1, 2, (1, 1), {(1,): ONE}))
    assert (h.n, h.cutoff, h.shape, h.p) == (1, 2, (1, 1), 1)


def test_real_part_constant():
    f = scalar_series(1, 2, {(): 3.0})
    h = ph.real_part(f)
    assert np.allclose(h.analytic.coefficient(()), 3.0 * ONE)
    assert not h.coanalytic.coeffs and len(h.analytic.coeffs) == 1


def test_real_part_splits_coefficients():
    f = scalar_series(1, 2, {(): 2.0 + 1.0j, (1,): 1.0})
    h = ph.real_part(f)
    assert np.allclose(h.analytic.coefficient(()), 2.0 * ONE)  # Hermitian part of f(0)
    assert np.allclose(h.analytic.coefficient((1,)), 0.5 * ONE)
    assert np.allclose(h.coanalytic.coefficient((1,)), 0.5 * ONE)
    assert h.is_selfadjoint()


def test_real_part_eval_matches_definition():
    e12 = np.zeros((3, 3)); e12[0, 1] = 1.0
    h = ph.real_part(scalar_series(1, 1, {(1,): 1.0}))
    got = ph.eval_at(h, OperatorTuple((e12,)))
    assert np.allclose(got, (e12 + e12.T) / 2)


def test_eval_at_zero_and_hermitian():
    rng = np.random.default_rng(0)
    f = fs.random_series(rng, 2, 2, (2, 2), scale=0.5)
    h = ph.real_part(f)
    zero = OperatorTuple((np.zeros((3, 3)), np.zeros((3, 3))))
    assert np.allclose(ph.eval_at(h, zero), kron(h.analytic.coefficient(()), np.eye(3)))
    x = random_nilpotent_tuple(rng, 2, 3, row_norm=0.7)
    val = ph.eval_at(h, x)
    assert np.max(np.abs(val - adjoint(val))) <= 1e-12


def test_radial_boundary():
    h = halfz_example()
    assert np.allclose(ph.radial_boundary(h, 0.0, 3), np.eye(4))
    got = ph.radial_boundary(ph.real_part(scalar_series(1, 1, {(1,): 1.0})), 1.0, 1)
    assert np.allclose(got, [[0.0, 0.5], [0.5, 0.0]])

    rng = np.random.default_rng(1)
    f = fs.random_series(rng, 2, 2, (1, 1), scale=0.7)
    hh = ph.real_part(f)
    n1 = operator_norm(ph.radial_boundary(hh, 0.4, 3))
    n2 = operator_norm(ph.radial_boundary(hh, 0.9, 3))
    assert n1 <= n2 + 1e-12


def test_radial_boundary_coefficients_roundtrip():
    rng = np.random.default_rng(2)
    f = fs.random_series(rng, 2, 2, (2, 2), scale=0.5)
    h = ph.real_part(f)
    r, N = 0.7, 4
    a = ph.radial_boundary(h, r, N)
    analytic, coanalytic = fs.extract_coeffs(a, get_trunc(2, N), 2)
    for w in GradedBasis(2, 2).words:
        scale = r ** len(w)
        got = analytic.get(w, np.zeros((2, 2)))
        assert np.max(np.abs(got - scale * h.analytic.coefficient(w))) <= 1e-13
        if w:
            gotb = coanalytic.get(w, np.zeros((2, 2)))
            assert np.max(np.abs(gotb - scale * h.coanalytic.coefficient(w))) <= 1e-13


def test_pluriharmonic_poisson_kernel():
    ft = get_trunc(2, 3)
    zero = OperatorTuple((np.zeros((2, 2)), np.zeros((2, 2))))
    assert np.allclose(ph.pluriharmonic_poisson_kernel(ft, zero), np.eye(ft.dim * 2))

    rng = np.random.default_rng(3)
    x = random_nilpotent_tuple(rng, 2, 3, row_norm=0.8)
    p = ph.pluriharmonic_poisson_kernel(ft, x)
    # compression of a positive operator: PSD regardless of truncation
    assert min_eig_hermitian(p) >= -1e-10
    from freefock.fock import berezin_kernel

    b = berezin_kernel(ft, x)
    nu = 3
    hi = ft.basis.degree_slice(ft.N - nu)[1] * x.dim
    diff = (p - adjoint(b) @ b)[:hi, :hi]
    assert np.max(np.abs(diff)) <= 1e-12


def test_pluriharmonic_poisson_kernel_nilpotent_outside_ball():
    # row norm >= 1 is computable for jointly nilpotent tuples (the sums
    # terminate), though positivity belongs to the open ball only
    ft = get_trunc(1, 3)
    x = OperatorTuple((np.array([[0.0, 1.4], [0.0, 0.0]]),))
    p = ph.pluriharmonic_poisson_kernel(ft, x)
    assert np.max(np.abs(p - adjoint(p))) <= 1e-12
    # entrywise definition: sum over words of R_~a (x) X_a* plus adjoints
    want = np.eye(ft.dim * 2, dtype=complex)
    for w in GradedBasis(1, ft.N).words:
        if w:
            shift = np.linalg.matrix_power(ft.right_creation(1), len(w))  # e_b -> e_{b w}
            term = kron(shift, adjoint(x.word(w)))
            want += term + adjoint(term)
    assert np.max(np.abs(p - want)) <= 1e-12
    bad = OperatorTuple((np.eye(2),))
    with pytest.raises(ScopeError):
        ph.pluriharmonic_poisson_kernel(ft, bad)


def test_check_positive():
    rep = ph.check_positive(halfz_example(), 4, 1e-9)
    assert rep.passed and len(rep.min_eigs) == 5
    # min eigs decrease as the truncation grows (compressions nest)
    assert all(a >= b - 1e-12 for a, b in zip(rep.min_eigs, rep.min_eigs[1:]))

    # 1 + (Z + Z*) sits exactly on the boundary at the m = 1 level
    boundary = symbol(1, 1, {(): ONE, (1,): ONE}, {(1,): ONE})
    rep = ph.check_positive(boundary, 1, 1e-12)
    assert rep.passed and rep.min_eigs[1] == pytest.approx(0.0, abs=1e-14)

    over = symbol(1, 1, {(): ONE, (1,): 1.01 * ONE}, {(1,): 1.01 * ONE})
    rep = ph.check_positive(over, 2, 1e-9)
    assert not rep.passed and rep.min_eigs[1] < -1e-3

    const = symbol(2, 0, {(): 2.0 * ONE}, {})
    assert ph.check_positive(const, 3, 0.0).passed

    skew = symbol(1, 1, {(): ONE, (1,): ONE}, {(1,): -ONE})
    with pytest.raises(InputError):
        ph.check_positive(skew, 2, 1e-9)


def test_coefficient_bound_check():
    rep = ph.coefficient_bound_check(halfz_example())
    assert rep.passed and rep.rows[0][1] == pytest.approx(0.5)

    const = symbol(1, 2, {(): ONE}, {})
    assert ph.coefficient_bound_check(const).passed  # empty degrees give 0


def test_harnack_check():
    h = halfz_example()
    rng = np.random.default_rng(4)
    r = 0.5
    samples = [random_nilpotent_tuple(rng, 1, 3, row_norm=r) for _ in range(4)]
    rep = ph.harnack_check(h, samples, r)
    assert rep.passed
    assert rep.bound == pytest.approx(3.0, abs=1e-6)  # ||A_0|| (1+r)/(1-r)
    assert all(v <= 1.5 + 1e-9 for v in rep.values)  # actual values are smaller

    zero_sample = OperatorTuple((np.zeros((2, 2)),))
    rep = ph.harnack_check(h, [zero_sample], 0.25)
    assert rep.values[0] == pytest.approx(1.0)

    loud = OperatorTuple((np.array([[0.0, 0.9], [0.0, 0.0]]),))
    with pytest.raises(InputError):
        ph.harnack_check(h, [loud], 0.5)


def test_mean_value_check():
    zero = OperatorTuple((np.zeros((2, 2)), np.zeros((2, 2))))
    rng = np.random.default_rng(5)
    h = ph.real_part(fs.random_series(rng, 2, 2, (1, 1), scale=0.5))
    assert ph.mean_value_check(h, zero, 0.9, 3).passed

    e12 = np.zeros((3, 3)); e12[0, 1] = 0.3
    e23 = np.zeros((3, 3)); e23[1, 2] = 0.3
    x = OperatorTuple((e12, e23))
    h = ph.real_part(scalar_series(2, 2, {(1, 2): 1.0}))
    rep = ph.mean_value_check(h, x, 0.9, 6)
    assert rep.passed and rep.deviation <= 1e-10

    with pytest.raises(ScopeError):
        ph.mean_value_check(h, x, 0.9, 3)  # truncation too small to be exact
    with pytest.raises(ScopeError):
        ph.mean_value_check(h, OperatorTuple((np.eye(3) * 0.1, np.zeros((3, 3)))), 0.9, 6)


def test_is_multi_toeplitz():
    rng = np.random.default_rng(6)
    ft = get_trunc(2, 4)
    h = ph.real_part(fs.random_series(rng, 2, 2, (1, 1), scale=0.5))
    a = ph.radial_boundary(h, 0.8, 4)
    assert ph.is_multi_toeplitz(a, ft, margin=2, tol=1e-10)
    assert ph.is_multi_toeplitz(np.eye(ft.dim, dtype=complex), ft, margin=1, tol=1e-12)

    s1 = ft.left_creation(1)
    assert not ph.is_multi_toeplitz(s1 @ s1.conj().T, ft, margin=1, tol=1e-10)
    with pytest.raises(InputError):
        ph.is_multi_toeplitz(np.eye(ft.dim), ft, margin=0, tol=1e-10)


def test_max_min_principle_spot_check():
    # a positive nonconstant function must exceed its center value at
    # some nilpotent sample (otherwise it would be constant)
    h = halfz_example()
    rng = np.random.default_rng(7)
    found = False
    for _ in range(10):
        x = random_nilpotent_tuple(rng, 1, 3, row_norm=0.6)
        val = ph.eval_at(h, x)
        center = kron(h.analytic.coefficient(()), np.eye(3))
        top = np.linalg.eigvalsh((val - center + adjoint(val - center)) / 2)[-1]
        if top > 1e-6:
            found = True
            break
    assert found
