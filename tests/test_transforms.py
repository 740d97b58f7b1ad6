import math

import numpy as np
import pytest

from freefock import fock
from freefock import pluriharmonic as ph
from freefock import series as fs
from freefock import transforms as tr
from freefock.errors import InputError, ScopeError
from freefock.fock import FockTrunc, OperatorTuple, random_nilpotent_tuple
from freefock.linalg import adjoint, kron, min_eig_hermitian
from freefock.toeplitz import assemble_T
from freefock.words import GradedBasis

ONE = np.array([[1.0]])


def tau_state(ft):
    v = np.zeros(ft.dim, dtype=complex)
    v[0] = 1.0
    return v


def two_point_state(ft):
    v = np.zeros(ft.dim, dtype=complex)
    v[0] = v[1] = 1.0 / math.sqrt(2.0)
    return v


def test_from_vector_states_tau():
    ft = FockTrunc(2, 3)
    mu = tr.from_vector_states(ft, [(1.0, tau_state(ft), tau_state(ft))], 2)
    assert mu.unit[0, 0] == pytest.approx(1.0)
    assert not mu.symbol.coanalytic.coeffs and mu.symbol.analytic.max_degree() == 0


def test_from_vector_states_two_point():
    ft = FockTrunc(1, 4)
    xi = two_point_state(ft)
    mu = tr.from_vector_states(ft, [(1.0, xi, xi)], 3)
    assert mu.unit[0, 0] == pytest.approx(1.0)
    assert mu.symbol.coanalytic.coeffs[(1,)][0, 0] == pytest.approx(0.5)
    for k in (2, 3):
        assert (1,) * k not in mu.symbol.coanalytic.coeffs
    assert mu.is_selfadjoint()


def test_from_vector_states_zero_weights():
    ft = FockTrunc(1, 3)
    mu = tr.from_vector_states(ft, [(0.0, two_point_state(ft), two_point_state(ft))], 2)
    assert mu.unit[0, 0] == 0.0 and not mu.symbol.coanalytic.coeffs


def test_from_vector_states_exactness_zone():
    ft = FockTrunc(1, 3)
    deep = np.zeros(ft.dim, dtype=complex)
    deep[-1] = 1.0  # degree 3 vector
    with pytest.raises(InputError):
        tr.from_vector_states(ft, [(1.0, deep, deep)], 2)


def test_from_vector_states_matches_creation_matrices():
    """The moments against the loop over words through dense right creation
    matrices: B_a = sum w <M xi, eta> and A_a = sum w <xi, M eta>, M = R_~a
    appending a, to a tolerance set by the dtype (summation order differs)."""
    rng = np.random.default_rng(12)
    for n, N, cutoff in ((1, 5, 3), (2, 5, 2), (3, 4, 2)):
        ft = FockTrunc(n, N)
        hi = ft.degree_slice(N - cutoff)[1]
        pairs = []
        for _ in range(3):
            xi, eta = np.zeros((2, ft.dim), dtype=complex)
            xi[:hi], eta[:hi] = rng.standard_normal((2, hi, 2)) @ [1.0, 1j]
            pairs.append((complex(rng.uniform(0.2, 1.0), rng.normal()), xi, eta))
        mu = tr.from_vector_states(ft, pairs, cutoff)
        for a in GradedBasis(n, cutoff).words:
            m = np.eye(ft.dim)
            for i in a:
                m = ft.right_creation(i) @ m
            b_want = sum(w * np.vdot(eta, m @ xi) for w, xi, eta in pairs)
            a_want = sum(w * np.vdot(m @ eta, xi) for w, xi, eta in pairs)
            assert abs(mu.symbol.analytic.coefficient(a)[0, 0] - a_want) <= 1e-13
            if a:
                assert abs(mu.symbol.coanalytic.coefficient(a)[0, 0] - b_want) <= 1e-13


def test_moments_independent_of_truncation():
    # inside the exactness zone the truncated creation matrices reproduce
    # the untruncated moments: embedding the same state into a larger
    # space changes nothing
    rng = np.random.default_rng(9)
    small, large = FockTrunc(2, 4), FockTrunc(2, 7)
    v = np.zeros(small.dim, dtype=complex)
    hi = small.degree_slice(2)[1]
    v[:hi] = rng.standard_normal(hi) + 1j * rng.standard_normal(hi)
    w = np.zeros(large.dim, dtype=complex)
    for word in GradedBasis(2, 4).words:
        w[large.index(word)] = v[small.index(word)]
    mu_small = tr.from_vector_states(small, [(1.0, v, v)], 2)
    mu_large = tr.from_vector_states(large, [(1.0, w, w)], 2)
    assert mu_small.unit[0, 0] == pytest.approx(mu_large.unit[0, 0], abs=1e-15)
    small_b, large_b = mu_small.symbol.coanalytic.coeffs, mu_large.symbol.coanalytic.coeffs
    for key in set(small_b) | set(large_b):
        assert small_b[key][0, 0] == pytest.approx(large_b[key][0, 0], abs=1e-15)


def test_poisson_transform_of():
    ft = FockTrunc(2, 4)
    rng = np.random.default_rng(0)
    mu = tr.from_vector_states(
        ft, [(1.0, tau_state(ft), tau_state(ft))], 2
    )
    x = random_nilpotent_tuple(rng, 2, 3, row_norm=0.7)
    assert np.allclose(tr.poisson_transform_of(mu, x), np.eye(3))

    zero = OperatorTuple((np.zeros((3, 3)), np.zeros((3, 3))))
    v = np.zeros(ft.dim, dtype=complex)
    v[:4] = [0.6, 0.4, 0.2j, -0.1]
    mu = tr.from_vector_states(ft, [(1.0, v, v)], 2)
    assert np.allclose(tr.poisson_transform_of(mu, zero), mu.unit[0, 0] * np.eye(3))

    out = tr.poisson_transform_of(mu, x)
    assert np.max(np.abs(out - adjoint(out))) <= 1e-11
    assert min_eig_hermitian(out) >= -1e-10


def test_herglotz_and_fantappie():
    ft = FockTrunc(1, 4)
    xi = two_point_state(ft)
    mu = tr.from_vector_states(ft, [(1.0, xi, xi)], 3)
    z = np.zeros((2, 2)); z[0, 1] = 0.4
    x = OperatorTuple((z,))

    h = tr.herglotz_transform(mu, x)
    assert np.max(np.abs(h - (np.eye(2) + z))) <= 1e-12  # I + 2 * (1/2) X

    f = tr.fantappie_transform(mu, x)
    assert np.max(np.abs(2.0 * f - kron(mu.unit, np.eye(2)) - h)) == 0.0

    zero = OperatorTuple((np.zeros((2, 2)),))
    assert np.allclose(tr.fantappie_transform(mu, zero), np.eye(2))
    assert np.allclose(tr.herglotz_transform(mu, zero), np.eye(2))

    # Re(H mu) equals (P mu) for selfadjoint positive data
    re_h = (h + adjoint(h)) / 2.0
    assert np.max(np.abs(re_h - tr.poisson_transform_of(mu, x))) <= 1e-10


def test_herglotz_from_isometries():
    rng = np.random.default_rng(1)
    n, N = 2, 4
    ft = FockTrunc(n, N)
    v_ops = OperatorTuple(tuple(ft.right_creation(i) for i in (1, 2)))
    q = ft.degree_projection(N - 1)
    x = random_nilpotent_tuple(rng, n, 3, row_norm=0.6)

    w = np.zeros((ft.dim, 1), dtype=complex)
    w[0, 0] = 1.0  # embedding of e_(g0)
    got = tr.herglotz_from_isometries(v_ops, w, x, np.zeros((1, 1)), domain_projection=q)
    assert np.max(np.abs(got - np.eye(3))) <= 1e-10  # tau-type functional

    zero = OperatorTuple((np.zeros((3, 3)), np.zeros((3, 3))))
    im = np.array([[0.7]])
    got = tr.herglotz_from_isometries(v_ops, w, zero, im, domain_projection=q)
    assert np.allclose(got, (w.conj().T @ w)[0, 0] * np.eye(3) + 1j * 0.7 * np.eye(3))

    wr = rng.standard_normal((ft.dim, 2)) + 1j * rng.standard_normal((ft.dim, 2))
    out = tr.herglotz_from_isometries(v_ops, wr, x, np.zeros((2, 2)), domain_projection=q)
    assert min_eig_hermitian((out + adjoint(out)) / 2.0) >= -1e-9

    with pytest.raises(ScopeError):
        tr.herglotz_from_isometries(v_ops, w, x, np.zeros((1, 1)))  # no compression


def test_kernel_from_series_constant():
    f = fs.FreeSeries(2, 0, (1, 1), {(): np.array([[0.3 + 0.2j]])})
    k = tr.kernel_from_series(f)
    assert np.allclose(k, 0.6 * np.eye(1))


def test_kernel_permutation_identity():
    # reversal permutation conjugates the left-divisibility kernel onto
    # the right-divisibility matrix, exhaustively for n <= 3, m <= 3
    rng = np.random.default_rng(2)
    for n, m in ((1, 3), (2, 2), (2, 3), (3, 2), (3, 3)):
        f = fs.random_series(rng, n, m, (1, 1), scale=0.6)
        k = tr.kernel_from_series(f)
        a0 = f.coefficient(())
        coeffs = {(): a0 + adjoint(a0)}
        coeffs.update({w: c for w, c in f.coeffs.items() if w})
        t = assemble_T(fs.FreeSeries(n, m, (1, 1), coeffs))
        basis = GradedBasis(n, m)
        perm = np.zeros((basis.size, basis.size))
        for j, w in enumerate(basis.words):
            perm[basis.index[w[::-1]], j] = 1.0
        assert np.max(np.abs(perm.T @ k @ perm - t)) == 0.0


def test_kernel_classical_case():
    f = fs.FreeSeries(1, 2, (1, 1), {(): ONE, (1,): 0.5 * ONE, (1, 1): 0.25 * ONE})
    k = tr.kernel_from_series(f)
    want = np.array([[2.0, 0.5, 0.25], [0.5, 2.0, 0.5], [0.25, 0.5, 2.0]])
    assert np.allclose(k, want)


def test_positivity_equivalence_check():
    grid = [0.3, 0.7, 0.95]
    f = fs.FreeSeries(2, 0, (1, 1), {(): 0.5 * ONE})
    rep = tr.positivity_equivalence_check(f, 2, grid)
    assert rep.agree and rep.all_positive

    f = fs.FreeSeries(1, 1, (1, 1), {(): 0.5 * ONE, (1,): 0.5 * ONE})
    rep = tr.positivity_equivalence_check(f, 3, grid)
    assert rep.agree and rep.all_positive

    f = fs.FreeSeries(1, 1, (1, 1), {(1,): ONE})
    rep = tr.positivity_equivalence_check(f, 1, grid)
    assert rep.agree and not rep.all_positive


def test_positivity_equivalence_check_rejects_vacuous_input():
    """Z_1 is indefinite; an empty grid or a negative level would report
    its predicates positive over nothing, a radius outside [0, 1] (nan
    too) has no compression."""
    f = fs.FreeSeries(1, 1, (1, 1), {(1,): ONE})
    for grid in ([], [-3.0, np.nan], [np.nan], [0.5, 1.5], [-0.1]):
        with pytest.raises(InputError, match="radius grid"):
            tr.positivity_equivalence_check(f, 1, grid)
    with pytest.raises(InputError, match="level -1"):
        tr.positivity_equivalence_check(f, -1, [0.5])
    rep = tr.positivity_equivalence_check(f, 1, [0.0, 1.0])  # both ends are radii
    assert rep.agree and not rep.all_positive


def test_positivity_equivalence_check_eigensolves_once_per_matrix(monkeypatch):
    """One dense eigensolve per radius, one for the kernel and one for
    Re f(S^(m_max)): no level below m_max is built."""
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or real(a))
    f = fs.FreeSeries(2, 2, (1, 1), {(): ONE, (1,): 0.3 * ONE, (2, 1): 0.2j * ONE})
    grid = [0.3, 0.7, 0.95]
    rep = tr.positivity_equivalence_check(f, 3, grid)
    assert rep.agree and rep.all_positive
    assert calls == [15] * len(grid) + [15, 15]


def test_positivity_equivalence_check_builds_every_predicate_at_m_max():
    """Z_1 at level 0 sees only its zero constant: the kernel stops at
    m_max with the compressions, so all three minima are 0."""
    f = fs.FreeSeries(1, 1, (1, 1), {(1,): ONE})
    rep = tr.positivity_equivalence_check(f, 0, [0.0, 1.0])
    assert rep.agree and rep.all_positive
    assert rep.min_eigs == {"radial": 0.0, "kernel": 0.0, "creation": 0.0}


def test_fejer_check():
    ft = FockTrunc(1, 2)
    xi = two_point_state(ft)
    mu = tr.from_vector_states(ft, [(1.0, xi, xi)], 1)
    rep = tr.fejer_check(mu, 2)
    assert rep.passed
    k, lhs, bound = rep.rows[0]
    assert k == 1 and lhs == pytest.approx(0.5, abs=1e-14)
    assert bound == pytest.approx(0.5 + 1e-10, abs=1e-14)  # equality case

    tau = tr.from_vector_states(ft, [(1.0, tau_state(ft), tau_state(ft))], 1)
    rep = tr.fejer_check(tau, 2)
    assert rep.passed and rep.rows[0][1] == 0.0

    with pytest.raises(InputError):
        tr.fejer_check(mu, 3)  # functional only carries moments to length 1


def test_radial_functional():
    rng = np.random.default_rng(3)
    f = fs.random_series(rng, 2, 2, (1, 1), scale=0.5)
    h = ph.real_part(f)

    mu0 = tr.radial_functional(h, 0.0)
    assert not mu0.symbol.coanalytic.coeffs and mu0.symbol.analytic.max_degree() == 0
    assert np.allclose(mu0.unit, h.analytic.coefficient(()))

    r1, r2 = 0.8, 0.4
    mu1 = tr.radial_functional(h, r1)
    mu2 = tr.radial_functional(h, r2)
    for w, c in mu1.symbol.coanalytic.coeffs.items():
        assert np.allclose(c * (r2 / r1) ** len(w), mu2.symbol.coanalytic.coeffs[w])

    x = random_nilpotent_tuple(rng, 2, 3, row_norm=0.9)
    got = tr.poisson_transform_of(tr.radial_functional(h, 0.6), x)
    want = ph.eval_at(h, x.scale(0.6))
    assert np.max(np.abs(got - want)) <= 1e-10


def test_poisson_transform_linearity():
    ft = FockTrunc(2, 4)
    rng = np.random.default_rng(8)
    v1 = np.zeros(ft.dim, dtype=complex)
    v2 = np.zeros(ft.dim, dtype=complex)
    v1[:3] = rng.standard_normal(3)
    v2[:3] = rng.standard_normal(3)
    mu1 = tr.from_vector_states(ft, [(1.0, v1, v1)], 2)
    mu2 = tr.from_vector_states(ft, [(1.0, v2, v2)], 2)
    both = tr.from_vector_states(ft, [(1.0, v1, v1), (1.0, v2, v2)], 2)
    x = random_nilpotent_tuple(rng, 2, 3, row_norm=0.7)
    lhs = tr.poisson_transform_of(both, x)
    rhs = tr.poisson_transform_of(mu1, x) + tr.poisson_transform_of(mu2, x)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_poisson_pluriharmonic():
    ft = FockTrunc(2, 4)
    rng = np.random.default_rng(4)
    v = np.zeros(ft.dim, dtype=complex)
    v[:7] = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    v /= np.linalg.norm(v)
    mu = tr.from_vector_states(ft, [(1.0, v, v)], 2)
    h = tr.poisson_pluriharmonic(mu)
    assert h.is_selfadjoint()
    assert ph.check_positive(h, 4, 1e-9).feasible


def test_poisson_transform_of_builds_one_tree(monkeypatch):
    calls, inner = [], fock.word_products
    monkeypatch.setattr(fock, "word_products", lambda *a: calls.append(a) or inner(*a))
    rng = np.random.default_rng(3)
    mu = tr.radial_functional(ph.real_part(fs.random_series(rng, 2, 3, (2, 2), scale=0.3)), 0.5)
    X = random_nilpotent_tuple(rng, 2, 3, row_norm=0.5)
    got = tr.poisson_transform_of(mu, X)
    assert len(calls) == 1
    want = tr.fantappie_transform(mu, X) + adjoint(
        fs.eval_at(mu.symbol.coanalytic.adjoint(), X))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    with pytest.raises(InputError, match="functional expects"):
        tr.poisson_transform_of(mu, OperatorTuple(X.matrices[:1]))
