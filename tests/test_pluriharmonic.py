import itertools
import tracemalloc

import numpy as np
import pytest

from freefock import fock
from freefock import pluriharmonic as ph
from freefock import series as fs
from freefock import toeplitz as tp
from freefock.errors import InputError, ScopeError
from freefock.fock import FockTrunc, OperatorTuple, random_nilpotent_tuple
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
    analytic, coanalytic = fs.extract_coeffs(a, FockTrunc(2, N), 2)
    for w in GradedBasis(2, 2).words:
        scale = r ** len(w)
        got = analytic.get(w, np.zeros((2, 2)))
        assert np.max(np.abs(got - scale * h.analytic.coefficient(w))) <= 1e-13
        if w:
            gotb = coanalytic.get(w, np.zeros((2, 2)))
            assert np.max(np.abs(gotb - scale * h.coanalytic.coefficient(w))) <= 1e-13


def test_pluriharmonic_poisson_kernel():
    ft = FockTrunc(2, 3)
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
    hi = ft.degree_slice(ft.N - nu)[1] * x.dim
    diff = (p - adjoint(b) @ b)[:hi, :hi]
    assert np.max(np.abs(diff)) <= 1e-12


def test_pluriharmonic_poisson_kernel_nilpotent_outside_ball():
    # row norm >= 1 is computable for jointly nilpotent tuples (the sums
    # terminate), though positivity belongs to the open ball only
    ft = FockTrunc(1, 3)
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


def test_pluriharmonic_poisson_kernel_scope_before_allocating():
    """A tuple outside the scope is refused before the 512 x 512 resolvent
    on P^(255) (x) C^2 exists."""
    bad = OperatorTuple((np.eye(2),))
    tracemalloc.start()
    try:
        with pytest.raises(ScopeError):
            ph.pluriharmonic_poisson_kernel(FockTrunc(1, 255), bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 64 * 16


def test_check_positive():
    reps = [ph.check_positive(halfz_example(), m, 1e-9) for m in range(5)]
    assert all(t.feasible for t in reps)
    # min eigs decrease as the truncation grows (compressions nest)
    min_eigs = [t.min_eig for t in reps]
    assert all(a >= b - 1e-12 for a, b in zip(min_eigs, min_eigs[1:]))

    # 1 + (Z + Z*) sits exactly on the boundary at the m = 1 level
    boundary = symbol(1, 1, {(): ONE, (1,): ONE}, {(1,): ONE})
    rep = ph.check_positive(boundary, 1, 1e-12)
    assert rep.feasible and rep.min_eig == pytest.approx(0.0, abs=1e-14)

    over = symbol(1, 1, {(): ONE, (1,): 1.01 * ONE}, {(1,): 1.01 * ONE})
    assert not ph.check_positive(over, 2, 1e-9).feasible
    assert ph.check_positive(over, 1, 1e-9).min_eig < -1e-3

    const = symbol(2, 0, {(): 2.0 * ONE}, {})
    assert ph.check_positive(const, 3, 0.0).feasible

    skew = symbol(1, 1, {(): ONE, (1,): ONE}, {(1,): -ONE})
    with pytest.raises(InputError):
        ph.check_positive(skew, 2, 1e-9)


def test_check_positive_across_the_dense_threshold():
    """1 + 2 Re(a Z_1 + b Z_2) with r = ||(a, b)|| = 0.548 has smallest
    eigenvalue 1 - 2 r cos(pi / (m + 2)) at level m: positive up to m = 5,
    negative from m = 6.  At n = 2, p = 1 the levels of side d_m =
    2^(m + 1) - 1 <= DENSE_DIM carry the dense min_eig, the levels above
    it a bracket of it (min_eig_atol), and every verdict is that of the
    dense h(S^(m)) built from both parts.  The level-9 record lies below
    every level's dense min eig (interlacing) and gives the all-levels
    verdict."""
    a, b = 0.3288, 0.4384j
    h = symbol(2, 1, {(): ONE, (1,): a * ONE, (2,): b * ONE},
               {(1,): np.conj(a) * ONE, (2,): np.conj(b) * ONE})
    tol = 1e-9
    reps = [ph.check_positive(h, m, tol) for m in range(10)]
    dense = [t.min_eig_atol is None for t in reps]
    assert dense == [2 ** (m + 1) - 1 <= tp.DENSE_DIM for m in range(10)]
    assert dense[0] and not dense[9]  # both paths are met
    lams = [min_eig_hermitian(ph.radial_boundary(h, 1.0, m)) for m in range(10)]
    want = [lam >= -tol for lam in lams]
    assert [t.feasible for t in reps] == want == [True] * 6 + [False] * 4
    for m, t in enumerate(reps):
        lam = 1 - 1.096 * np.cos(np.pi / (m + 2))
        assert t.min_eig - 1e-12 <= lam <= t.min_eig + (t.min_eig_atol or 0.0) + 1e-12
    assert reps[9].min_eig_atol <= tp.MIN_EIG_RTOL * 2.1
    assert all(reps[9].min_eig <= lam + 1e-12 * (1 + 1.096) for lam in lams)  # ||h|| <= 1 + 2 r
    assert reps[9].feasible == all(want)


@pytest.mark.parametrize("n,p", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_check_positive_decides_every_level_at_the_top(n, p):
    """h(S^(m)) for m <= m_max is a principal submatrix of h(S^(m_max)),
    so by Cauchy interlacing the one record of level m_max lies below the
    dense min eig of every level, equals their minimum at the dense sizes,
    and its verdict is the all-levels verdict away from the boundary."""
    rng = np.random.default_rng(70 + 10 * n + p)
    tol, verdicts = 1e-9, set()
    for m_max in range(5):
        for scale in (0.1, 0.5, 2.0):
            f = fs.random_series(rng, n, 2, (p, p), scale=scale, min_degree=1)
            h = ph.real_part(f + fs.FreeSeries(n, 2, (p, p), {(): 2.0 * np.eye(p)}))
            rep = ph.check_positive(h, m_max, tol)
            lams = [min_eig_hermitian(ph.radial_boundary(h, 1.0, m)) for m in range(m_max + 1)]
            top = 1.0 + operator_norm(ph.radial_boundary(h, 1.0, m_max))
            assert rep.min_eig_atol is None  # every side here is dense
            assert all(rep.min_eig <= lam + 1e-12 * top for lam in lams)
            assert abs(rep.min_eig - min(lams)) <= 1e-12 * top
            if abs(min(lams) + tol) > 1e-10:
                assert rep.feasible == (min(lams) >= -tol)
            verdicts.add(rep.feasible)
    assert verdicts == {True, False}


def test_check_positive_makes_one_tm_positivity_call(monkeypatch):
    calls = []
    real = ph.tm_positivity
    monkeypatch.setattr(ph, "tm_positivity", lambda f, tol, m: calls.append(m) or real(f, tol, m))
    assert ph.check_positive(halfz_example(), 6, 1e-9).feasible
    assert calls == [6]


def test_check_positive_rejects_a_negative_level():
    with pytest.raises(InputError):
        ph.check_positive(halfz_example(), -1, 1e-9)


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


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [1, 2])
def test_poisson_at_matches_the_dense_oracle(n, p):
    """The closed form against poisson_transform of radial_boundary, with
    independent analytic and co-analytic parts, at nilpotent tuples and at
    tuples whose Q_j never vanish, for N = 0, N below the symbol's top
    degree and r = 1."""
    from freefock.fock import poisson_transform

    rng = np.random.default_rng(10 * n + p)
    for cutoff, N, r in itertools.product((0, 1, 3), (0, 1, 2, 4), (0.9, 1.0)):
        h = ph.PluriharmonicFn(fs.random_series(rng, n, cutoff, (p, p)),
                               fs.random_series(rng, n, cutoff, (p, p), min_degree=1))
        full = OperatorTuple(tuple(rng.standard_normal((3, 3, 2)) @ [1.0, 1j] for _ in range(n)))
        for X in (random_nilpotent_tuple(rng, n, 3, row_norm=0.6 * r),
                  full.scale(0.6 * r / full.row_norm)):
            want = poisson_transform(FockTrunc(n, N), ph.radial_boundary(h, r, N),
                                     X.scale(1.0 / r), coeff_dim=p)
            dev = operator_norm(ph.poisson_at(h, X, r, N) - want)
            assert dev <= 1e-13 * (1.0 + operator_norm(want)), (cutoff, N, r)


def test_poisson_at_at_a_long_one_letter_symbol():
    """n = 1, cutoff 30, 3 x 3 coefficients at a full 3 x 3 tuple, N = 30:
    every degree of both parts is weighted by its own D_k on one tree."""
    from freefock.fock import poisson_transform

    rng = np.random.default_rng(31)
    h = ph.PluriharmonicFn(fs.random_series(rng, 1, 30, (3, 3), scale=0.5),
                           fs.random_series(rng, 1, 30, (3, 3), scale=0.5, min_degree=1))
    full = OperatorTuple((rng.standard_normal((3, 3, 2)) @ [1.0, 1j],))
    X = full.scale(0.6 / full.row_norm)
    want = poisson_transform(FockTrunc(1, 30), ph.radial_boundary(h, 0.9, 30),
                             X.scale(1.0 / 0.9), coeff_dim=3)
    assert operator_norm(ph.poisson_at(h, X, 0.9, 30) - want) <= 1e-13 * operator_norm(want)


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls, inner = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or inner(*a, **k))
    return calls


def test_both_parts_share_one_tree_and_one_jsr_estimate(monkeypatch):
    """eval_at and poisson_at build one word_products tree for both parts,
    eval_at runs one jsr estimate (in series.eval_scope), and the Harnack
    and mean-value checks one per sample, their own nilpotency test."""
    rng = np.random.default_rng(6)
    h = ph.real_part(fs.random_series(rng, 2, 3, (2, 2), scale=0.3))
    trees = counting(monkeypatch, fock, "word_products")
    jsr_fs = counting(monkeypatch, fs, "jsr_estimate")
    jsr_ph = counting(monkeypatch, ph, "jsr_estimate")
    nil = random_nilpotent_tuple(rng, 2, 3, row_norm=0.5)
    full = OperatorTuple(tuple(0.2 * rng.standard_normal((3, 3)) for _ in range(2)))
    for X in (nil, full):
        del trees[:], jsr_fs[:]
        ph.eval_at(h, X)
        assert len(trees) == len(jsr_fs) == 1
        del trees[:]
        ph.poisson_at(h, X, 0.9, 4)
        assert len(trees) == 1
    samples = [random_nilpotent_tuple(rng, 2, 3, row_norm=0.4) for _ in range(3)]
    del trees[:], jsr_fs[:]
    ph.harnack_check(h, samples, 0.5)
    assert len(trees) == len(jsr_ph) == 3 and not jsr_fs
    del trees[:], jsr_ph[:]
    assert ph.mean_value_check(h, nil, 0.9, 6).passed
    assert len(jsr_ph) == 1 and not jsr_fs


def test_eval_at_tests_the_analytic_part_first():
    """One jsr estimate, then the radius test of the analytic part, then
    that of the adjoint of the co-analytic part, with series.eval_at's
    message, and X.n before any of them."""
    wide = {(1,) * k: 0.5**k * ONE for k in range(1, 4)}  # radius 2
    narrow = {(1,) * k: 2.0**k * ONE for k in range(1, 4)}  # radius 1/2
    narrower = {(1,) * k: 4.0**k * ONE for k in range(1, 4)}  # radius 1/4
    x = OperatorTuple((np.array([[0.6]]),))  # jsr 0.6: inside 0.9 x 2 only
    with pytest.raises(ScopeError, match="radius estimate 0.5000"):
        ph.eval_at(symbol(1, 3, {(): ONE, **narrow}, narrower), x)
    with pytest.raises(ScopeError, match="radius estimate 0.2500"):
        ph.eval_at(symbol(1, 3, {(): ONE, **wide}, narrower), x)
    got = ph.eval_at(symbol(1, 3, {(): ONE, **wide}, wide), x)
    assert got[0, 0] == pytest.approx(1.0 + 2.0 * sum(0.3**k for k in range(1, 4)))
    with pytest.raises(InputError, match="operators"):
        ph.eval_at(symbol(1, 3, {(): ONE, **narrow}, narrow), OperatorTuple((x.matrices[0],) * 2))
    for check in (lambda X: ph.harnack_check(halfz_example(), [X], 0.5),
                  lambda X: ph.mean_value_check(halfz_example(), X, 0.9, 6)):
        with pytest.raises(InputError, match="operators"):  # after the nilpotency test
            check(OperatorTuple((np.zeros((2, 2)),) * 2))


def test_poisson_at_checks_in_order():
    h = halfz_example()
    x = OperatorTuple((np.array([[0.0, 0.4], [0.0, 0.0]]),))
    wide = OperatorTuple((np.array([[0.0, 2.0], [0.0, 0.0]]),))
    for r in (0.0, -0.5, float("nan"), 1.5):  # a radius outside (0, 1] first
        for y in (x, wide):
            with pytest.raises(InputError, match=r"outside \(0, 1\]"):
                ph.poisson_at(h, y, r, -1)
    with pytest.raises(ScopeError, match="below radius"):
        ph.poisson_at(h, x, 0.4, -1)  # then the row norm
    with pytest.raises(InputError, match="negative"):
        ph.poisson_at(h, x, 0.9, -1)  # then the truncation
    with pytest.raises(InputError, match="operators"):
        ph.poisson_at(h, OperatorTuple((x.matrices[0],) * 2), 0.9, 3)
    with pytest.raises(ScopeError, match="open unit ball"):
        ph.poisson_at(h, x, 0.4 * (1.0 + 1e-14), 3)
    assert np.allclose(ph.poisson_at(h, x, 0.9, 3), ph.eval_at(h, x), atol=1e-14)


def poisson_at_keeping_every_q(h, X, r, N):
    """poisson_at's closed form with every Q_j of the recurrence kept: the
    reference for keeping only the Q_j that the D_k read."""
    Y = X.scale(1.0 / r)
    Q = [np.eye(X.dim, dtype=complex)]
    while len(Q) <= N + 1 and Q[-1].any():
        Q.append(sum(y @ Q[-1] @ adjoint(y) for y in Y.matrices))
    Q += [0.0] * (N + 2 - len(Q))
    right = [Q[0] - Q[N + 1 - k] for k in range(min(N, h.cutoff) + 1)]
    parts = [{k: b for k, b in f.blocks.items() if k <= N}
             for f in (h.analytic, h.coanalytic.adjoint())]
    a, b = fock.word_sum(X.stack, h.p, parts, right)[:, 0]
    return a + adjoint(b)


def test_poisson_at_equals_the_recurrence_keeping_every_q():
    """Bit for bit, on nilpotent and dense tuples, at every N below, at and
    above the cutoff."""
    rng = np.random.default_rng(21)
    for case in range(60):
        n, p, dim = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 5))
        cutoff, N = int(rng.integers(0, 4)), int(rng.integers(0, 7))
        r = float(rng.uniform(0.5, 1.0))
        analytic = fs.random_series(rng, n, cutoff, (p, p), scale=0.5)
        coanalytic = fs.random_series(rng, n, cutoff, (p, p), scale=0.5).without_constant()
        h = ph.PluriharmonicFn(analytic, coanalytic)
        norm = r * float(rng.uniform(0.1, 0.95))
        if case % 2:
            x = random_nilpotent_tuple(rng, n, dim, row_norm=norm)
        else:
            x = OperatorTuple(tuple(rng.standard_normal((n, dim, dim))))
            x = x.scale(norm / x.row_norm)
        assert np.array_equal(ph.poisson_at(h, x, r, N), poisson_at_keeping_every_q(h, x, r, N))


def test_poisson_at_keeps_only_the_q_it_reads():
    """n = 1, a dim-40 tuple 0.89 U (U unitary, so no Q_j underflows) and
    N = 2000: the 2002 matrices Q_j would take 51 MB; only the last
    min(N, cutoff) + 1 = 2 are kept."""
    rng = np.random.default_rng(22)
    dim = 40
    u = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    x = OperatorTuple((0.89 * u,))
    tracemalloc.start()
    try:
        got = ph.poisson_at(halfz_example(), x, 1.0, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * dim * dim * 16
    assert np.allclose(got, ph.eval_at(halfz_example(), x), atol=1e-12)


def test_is_multi_toeplitz():
    rng = np.random.default_rng(6)
    ft = FockTrunc(2, 4)
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
