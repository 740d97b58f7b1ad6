import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from freefock import toeplitz as tp
from freefock.errors import InputError
from freefock.linalg import adjoint
from freefock.series import FreeSeries
from freefock.words import GradedBasis, right_quotient, word_count

ONE = np.array([[1.0]])
EPS = np.finfo(float).eps


def scalar_coeffs(mapping):
    return {w: np.array([[c]]) for w, c in mapping.items()}


def assemble(coeffs, n, m):
    """assemble_T of the series of coeffs, with the shape of b_0."""
    return tp.assemble_T(FreeSeries(n, m, coeffs[()].shape, coeffs))


def min_eig(t):
    return float(np.linalg.eigvalsh(t)[0])


def structured(f, tol, m=None):
    """tm_positivity(f, tol, m) on the factored path at any size."""
    with mock.patch.object(tp, "dense_decides", lambda n, dim: False):
        return tp.tm_positivity(f, tol, m)


def assert_brackets(rec, f, me, m=None):
    """min_eig <= me <= min_eig + min_eig_atol up to PIVOT_RTOL of the
    scale ||b_0|| + sum_k ||degree-k slice||, a bound on ||T_m||."""
    m = f.cutoff if m is None else m
    b0 = f.constant_term()
    scale = np.linalg.norm(b0, 2) + sum(f.degree_slice_norm(k) for k in f.blocks if 0 < k <= m)
    slack = tp.PIVOT_RTOL * scale
    assert 0.0 <= rec.min_eig_atol <= tp.MIN_EIG_RTOL * scale
    assert rec.min_eig - slack <= me <= rec.min_eig + rec.min_eig_atol + slack


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
    assert np.allclose(t, [[2.0, 1.0], [1.0, 2.0]])


def test_assemble_T_two_generators():
    c = 0.3 + 0.4j
    t = assemble(scalar_coeffs({(): 1.0, (1,): c, (2,): c}), 2, 1)
    want = np.array(
        [[1.0, np.conj(c), np.conj(c)], [c, 1.0, 0.0], [c, 0.0, 1.0]], dtype=complex
    )
    assert np.allclose(t, want)


def test_assemble_T_diagonal_only():
    rng = np.random.default_rng(0)
    b0 = rng.standard_normal((2, 2))
    b0 = b0 + b0.T
    t = assemble({(): b0}, 2, 2)
    assert np.allclose(t, np.kron(b0, np.eye(7)))
    with pytest.raises(InputError):
        tp.assemble_T(FreeSeries(2, 2, (2, 1), {(): np.ones((2, 1))}))  # not square


def test_assemble_kernel_matches_assemble_T():
    rng = np.random.default_rng(1)
    for k in range(100):
        n = 1 + k % 3
        m = 1 + k % 3
        p = 1 + k % 2
        coeffs = random_coeffs(rng, n, m, p)
        a = assemble(coeffs, n, m)
        b = assemble_kernel(coeffs, n, m)
        assert np.max(np.abs(a - b)) <= 1e-14


def test_assemble_classical_toeplitz():
    coeffs = scalar_coeffs({(): 1.0, (1,): 0.5, (1, 1): 0.25})
    t = assemble_kernel(coeffs, 1, 2)
    want = np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1.0]])
    # classical Hermitian Toeplitz with first column (1, .5, .25)
    assert np.allclose(t, want.T)
    assert np.allclose(assemble(coeffs, 1, 2), want.T)


def test_assemble_nesting():
    rng = np.random.default_rng(2)
    n, p = 2, 2
    coeffs = random_coeffs(rng, n, 2, p)
    big = assemble(coeffs, n, 3)
    small = assemble(coeffs, n, 2)
    dim_small = GradedBasis(n, 2).size
    dim_big = GradedBasis(n, 3).size
    idx = np.concatenate([np.arange(dim_small) + i * dim_big for i in range(p)])
    compressed = big[np.ix_(idx, idx)]
    assert np.max(np.abs(compressed - small)) == 0.0


def test_min_eig():
    t = assemble(scalar_coeffs({(): 2.0, (1,): 1.0}), 1, 1)
    assert min_eig(t) == pytest.approx(1.0, abs=1e-12)
    t = assemble(scalar_coeffs({(): 2.0, (1,): 3.0}), 1, 1)
    assert min_eig(t) == pytest.approx(-1.0, abs=1e-12)

    b0 = np.diag([3.0, 0.5])
    t = assemble({(): b0}, 2, 1)
    assert min_eig(t) == pytest.approx(0.5, abs=1e-12)


# -- recursive Schur factorisation -----------------------------------------


def random_series(rng, n, m, p, scale=1.0):
    """Series with random coefficients and a Hermitian b_0 = 2 I + noise:
    usually indefinite T_m at scale 1."""
    coeffs = {w: scale * c for w, c in random_coeffs(rng, n, m, p).items()}
    coeffs[()] = 2.0 * np.eye(p) + random_coeffs(rng, 1, 0, p)[()]
    return FreeSeries(n, m, (p, p), coeffs)


def in_tree_order(t, n, m, p):
    """Dense T_m permuted to last-letter tree order, Fock-major."""
    order = tp.tree_order(n, m)
    d = len(order)
    t4 = t.reshape(p, d, p, d)[:, order][:, :, :, order]
    return t4.transpose(1, 0, 3, 2).reshape(d * p, d * p)


@pytest.mark.parametrize("n,k,p", [(2, 4, 1), (2, 4, 2), (3, 3, 2), (1, 6, 2)])
def test_schur_factor_matches_dense(n, k, p):
    rng = np.random.default_rng(10 * n + k + p)
    f = random_series(rng, n, k, p)
    t = tp.assemble_T(f)
    fac = tp.shifted_factor(f)(0.0)
    # log det T_k = sum_j n^(k-j) log det s_j
    logdet = np.linalg.slogdet(t)[1]
    got = sum(n ** (k - j) * np.log(np.abs(w)).sum() for j, w in enumerate(fac.eigenvalues))
    assert abs(got - logdet) <= 1e-13 * max(1.0, abs(logdet))
    ev = np.linalg.eigvalsh(t)
    assert (ev < 0).sum() > 0  # indefinite data
    assert fac.inertia() == ((ev < 0).sum(), 0, (ev > 0).sum())
    # the solve is T_k^{-1} in tree order, on several columns at once
    x = rng.standard_normal((len(tp.tree_order(n, k)), p, 3)) + 0j
    y = x.copy()
    fac.solve(y, k)
    resid = in_tree_order(t, n, k, p) @ y.reshape(-1, 3) - x.reshape(-1, 3)
    assert np.max(np.abs(resid)) <= 1e-12 * np.linalg.norm(t, 2) * np.max(np.abs(y))


def test_schur_factor_stops_at_negative_pivot():
    rng = np.random.default_rng(3)
    f = random_series(rng, 2, 4, 1)
    full = tp.shifted_factor(f)(0.0)
    first = next(j for j, w in enumerate(full.eigenvalues) if w[0] < 0)
    stopped = tp.shifted_factor(f)(0.0, stop=True)
    assert stopped.levels == first and not stopped.is_psd
    for a, b in zip(stopped.pivots, full.pivots):
        assert np.array_equal(a, b)


def pivot(s, cut, psd):
    """(pseudo-inverse, zero directions) of one pivot as SchurFactor takes it."""
    fac = tp.SchurFactor(1, len(s), cut, 0.0)
    fac._push(np.asarray(s, dtype=complex), psd)
    return fac._inverses[0], fac._kernels[0]


def test_pivot_pseudo_inverse():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    psd = a @ a.conj().T  # rank 2
    pinv, kernel = pivot(psd, 1e-12 * np.linalg.norm(psd, 2), psd=True)
    assert np.allclose(pinv, np.linalg.pinv(psd, rcond=1e-10, hermitian=True))
    assert np.allclose(psd @ pinv @ psd, psd)
    assert kernel.shape == (4, 2) and np.allclose(psd @ kernel, 0.0)
    # with psd, negative eigenvalues count as zero; without, they are inverted
    d = np.diag([4.0, 1e-14, -1e-9])
    assert np.allclose(pivot(d, 1e-12 * 4.0, psd=True)[0], np.diag([0.25, 0.0, 0.0]))
    assert np.allclose(pivot(d, 1e-12 * 4.0, psd=False)[0], np.diag([0.25, 0.0, -1e9]))
    assert pivot(np.zeros((0, 0)), 0.0, psd=True)[0].shape == (0, 0)


def test_schur_singular_pivots_need_the_range_condition():
    # tol = 0 and a singular b_0 = diag(1, 0): the zero pivot direction must
    # not hide b_1 = E_22, which makes T_1 indefinite (eigenvalues +-1 there)
    b0, e22 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    for b1, psd_want in ((e22, False), (np.diag([0.5, 0.0]), True)):
        f = FreeSeries(2, 3, (2, 2), {(): b0, (1,): b1})
        me = min_eig(tp.assemble_T(f))
        fac = tp.shifted_factor(f)(0.0, stop=True)
        assert fac.is_psd == psd_want == (me >= -1e-12)
    # boundary data: T_2 of (1, 1, 1) at n = 1 is the all-ones matrix, PSD and singular
    ones = FreeSeries(1, 2, (1, 1), {(): ONE, (1,): ONE, (1, 1): ONE})
    fac = tp.shifted_factor(ones)(0.0)
    assert fac.is_psd and fac.inertia() == (0, 2, 1)


def test_schur_factor_rejects_overflow():
    from freefock.errors import ScopeError

    f = FreeSeries(2, 2, (1, 1), {(): 1e-300 * ONE, (1,): -1e300 * ONE, (2, 1): 1e308 * ONE})
    with pytest.raises(ScopeError):
        tp.shifted_factor(f)(1e-9)


def test_central_extension_has_constant_pivots():
    # the free maximum-entropy property: s_j = s_m for every j > m
    from freefock import caratheodory as cara

    rng = np.random.default_rng(4)
    for n, m, p in ((2, 2, 2), (3, 1, 1), (1, 3, 2), (2, 1, 1)):
        f = random_series(rng, n, m, p, scale=0.1 / n)
        prob = cara.CaratheodoryProblem(f)
        ext = cara.extend(prob, m + 3)
        fac = tp.shifted_factor(ext.series)(0.0)
        assert fac.levels == m + 3 and fac.is_psd
        for j in range(m + 1, m + 4):
            assert np.max(np.abs(fac.pivots[j] - fac.pivots[m])) <= 1e-14


def test_central_extension_matches_dense_completion():
    # b_{w i} = T_{k-1}[|w| = k-1, |v| <= k-2] T_{k-2}^+ [b_{v i}], degree by degree
    from freefock import caratheodory as cara

    rng = np.random.default_rng(5)
    for n, m, p in ((2, 2, 1), (2, 1, 2), (3, 2, 2)):
        prob = cara.CaratheodoryProblem(random_series(rng, n, m, p, scale=0.1 / n))
        got = cara.extend(prob, m + 2).series
        coeffs = dict(prob.data.coeffs)
        for k in range(m + 1, m + 3):
            t = tp.assemble_T(FreeSeries(n, k - 1, (p, p), coeffs))
            basis = GradedBasis(n, k - 1)
            d, lo = basis.size, basis.degree_start[-1]
            e4 = t.reshape(p, d, p, d)
            c = e4[:, :lo, :, :lo].reshape(p * lo, p * lo)
            bstar = e4[:, lo:, :, :lo].reshape(p * (d - lo), p * lo)
            for w in basis.words_of_degree(k - 1):
                for i in range(1, n + 1):
                    x = np.concatenate([coeffs.get(v + (i,), np.zeros((p, p)))
                                        for v in basis.words[:lo]])
                    x = x.reshape(lo, p, p).transpose(1, 0, 2).reshape(p * lo, p)
                    y = (bstar @ np.linalg.pinv(c, hermitian=True) @ x).reshape(p, d - lo, p)
                    coeffs[w + (i,)] = y[:, basis.index[w] - lo, :]
        for w, c in coeffs.items():
            assert np.max(np.abs(got.coefficient(w) - c)) <= 1e-14


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(1, 2), st.floats(0.05, 1.5),
       st.sampled_from([0.0, 1e-9, 1e-3]), st.integers(0, 2**32 - 1))
def test_schur_verdict_matches_dense(n, m, p, scale, tol, seed):
    """The Schur verdict on T_m + tol I agrees with min eig >= -tol
    wherever the dense smallest eigenvalue is clear of -tol."""
    f = random_series(np.random.default_rng(seed), n, m, p, scale=scale)
    t = tp.assemble_T(f)
    me = min_eig(t)
    assume(abs(me + tol) > 1e-10 * np.linalg.norm(t, 2))
    fac = tp.shifted_factor(f)(tol, stop=True)
    assert fac.is_psd == (me >= -tol)
    rec = structured(f, tol)
    assert rec.feasible == fac.is_psd
    assert_brackets(rec, f, me)


def test_certify_narrows_to_the_threshold_or_to_resolution():
    calls = []

    def below(x):  # no guesses: bisection
        calls.append(x)
        return x <= 0.3, None

    lo, hi = tp.certify(below, 0.0, 1.0, 1e-9)
    assert lo <= 0.3 < hi and hi - lo <= 1e-9 and len(calls) == 30
    # atol 0: halving stops when the midpoint is one of the ends
    lo, hi = tp.certify(below, 0.0, 1.0, 0.0)
    assert lo <= 0.3 < hi and hi == np.nextafter(lo, 1.0)
    # a bracket no wider than atol, and a non-finite one, need no call
    calls.clear()
    assert tp.certify(below, 0.5, 0.5, 0.0) == (0.5, 0.5)
    assert tp.certify(below, -math.inf, 0.0, 1e-9)[0] == -math.inf
    assert calls == []


def probe_with(guess):
    """A probe of x <= 0.3 proposing guess(x), and the list of its points."""
    calls = []

    def probe(x):
        calls.append(x)
        return x <= 0.3, guess(x)

    return probe, calls


def test_certify_steers_by_its_guesses():
    atol = 1e-9
    # Newton on x^2 = 0.09 from above: quadratic steps, then one probe at hi - atol
    probe, calls = probe_with(lambda x: (x + 0.09 / x) / 2.0)
    lo, hi = tp.certify(probe, 0.0, 1.0, atol)
    assert lo <= 0.3 < hi and hi - lo <= atol and len(calls) == 6
    assert calls[0] == 0.5 and calls[-1] == lo  # a midpoint first: no guess yet
    # an exact guess holds, and the probe atol above it closes the bracket
    probe, calls = probe_with(lambda x: 0.3)
    lo, hi = tp.certify(probe, 0.0, 1.0, atol, guess=0.3)
    assert calls[0] == lo == 0.3 and calls[1] == hi and hi - lo <= atol and len(calls) == 2
    # a guess outside the bracket leaves the midpoint to run: bisection's points
    bisection, want = probe_with(lambda x: None)
    probe, calls = probe_with(lambda x: 2.0)
    assert tp.certify(probe, 0.0, 1.0, atol, 2.0) == tp.certify(bisection, 0.0, 1.0, atol)
    assert calls == want and len(calls) == 30
    # steps that do not halve (a creep, as next to a pole) alternate with midpoints
    probe, calls = probe_with(lambda x: x - 0.01)
    lo, hi = tp.certify(probe, 0.0, 1.0, atol, guess=0.99)
    assert calls[:4] == [0.99, 0.495, 0.485, 0.2425]
    assert lo <= 0.3 < hi and hi - lo <= atol


def count_factorisations(f, tol, steer=True):
    """(TmPositivity on the factored path, its nested_factor calls), with
    certify's guesses dropped when not steer: the bisection it replaces."""
    real = tp.certify

    def bisection(probe, lo, hi, atol, guess=None):
        return real(lambda mu: (probe(mu)[0], None), lo, hi, atol)

    with mock.patch.object(tp, "nested_factor", wraps=tp.nested_factor) as factor, \
            mock.patch.object(tp, "certify", real if steer else bisection):
        rec = structured(f, tol)
    return rec, factor.call_count


@pytest.mark.parametrize("n,m", [(1, 6), (2, 3), (3, 2)])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_steered_bracket_holds_the_dense_eigenvalue(n, m, p):
    """Newton-steered probes bracket the dense lambda_min(T_m) to
    PIVOT_RTOL of the scale with width <= MIN_EIG_RTOL times it, on
    feasible data, data just below -tol, indefinite data and data with
    exactly singular pivots (b_w = I at w = 1^k, the central extension of
    boundary data: s_k = 0 for k >= 1), and never take more
    factorisations than bisection does."""
    rng, tol = np.random.default_rng(100 * n + 10 * p + m), 1e-9
    f = random_series(rng, n, m, p, scale=0.3)
    shift = min_eig(tp.assemble_T(f))
    cases = [FreeSeries(n, m, (p, p), {(1,) * k: np.eye(p) for k in range(m + 1)})]
    for target in (0.3, -1e-6, -1.0):  # feasible, just infeasible, indefinite
        b0 = f.constant_term() + (target - shift) * np.eye(p)
        cases.append(FreeSeries(n, m, (p, p), {**f.coeffs, (): b0}))
    for g in cases:
        me = min_eig(tp.assemble_T(g))
        rec, steered = count_factorisations(g, tol)
        assert_brackets(rec, g, me)
        assert rec.feasible == (me >= -tol)
        assert steered <= count_factorisations(g, tol, steer=False)[1]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(1, 2), st.floats(0.0, 1.5),
       st.sampled_from([0.0, 1e-9, 1e-3, -1e-3]), st.booleans(), st.integers(0, 2**32 - 1))
def test_structured_min_eig_brackets_the_dense_eigenvalue(n, m, p, scale, tol, zero, seed):
    """On the factored path, forced at any size, [min_eig, min_eig +
    min_eig_atol] holds the dense smallest eigenvalue, feasible or not,
    and the zero series gets [0, 0] after the one deciding factorisation;
    every verdict the bracket gives is the dense one."""
    f = random_series(np.random.default_rng(seed), n, m, p, scale=scale)
    if zero:
        f = FreeSeries(n, m, (p, p), {})
    me = min_eig(tp.assemble_T(f))
    with mock.patch.object(tp, "nested_factor", wraps=tp.nested_factor) as factor:
        rec = structured(f, tol)
    assert_brackets(rec, f, me)
    if zero:
        assert (rec.min_eig, rec.min_eig_atol) == (0.0, 0.0) and factor.call_count == 1
    assert rec.verdict(tol) == rec.feasible
    for t in (-0.5, 0.0, 0.5, 2.0):
        if rec.verdict(t) is not None:
            assert rec.verdict(t) == (me >= -t)


# -- positivity of T_m at any level ------------------------------------------


@pytest.mark.parametrize("n,p,cutoff,levels", [(1, 1, 3, (1, 3, 5)), (1, 2, 3, (1, 3, 5)),
                                               (2, 1, 8, (7, 8, 9)), (2, 2, 7, (6, 7, 8))])
def test_tm_positivity_at_any_level_matches_the_dense_verdict(n, p, cutoff, levels):
    """tm_positivity(f, tol, m) below, at and above f.cutoff, for n = 2 on
    both sides of DENSE_DIM: assemble_T(f, m) is the compression of T at
    the top level (that of f with the higher cutoff), and at tolerances
    on either side of its smallest eigenvalue each verdict is the dense one."""
    f = random_series(np.random.default_rng(10 * n + p), n, cutoff, p, scale=0.05)
    top = tp.assemble_T(f, levels[-1])
    assert np.array_equal(top, tp.assemble_T(FreeSeries._built(n, levels[-1], (p, p), f.blocks)))
    for m in levels:
        t, d = tp.assemble_T(f, m), word_count(n, m)
        idx = (np.arange(p)[:, None] * word_count(n, levels[-1]) + np.arange(d)).ravel()
        assert np.array_equal(t, top[np.ix_(idx, idx)])
        me = min_eig(t)
        gap = 0.1 * abs(me) + 1e-3
        for tol, want in ((gap - me, True), (-gap - me, False)):
            rec = tp.tm_positivity(f, tol, m)
            assert rec.feasible == want and rec.matrix_dim == d * p and rec.tol == tol
            assert (rec.min_eig_atol is not None) == (n > 1 and d * p > tp.DENSE_DIM)
            if rec.min_eig_atol is None:
                assert abs(rec.min_eig - me) <= 16 * EPS * np.linalg.norm(t, 2)
            else:
                assert_brackets(rec, f, me, m)
    assert tp.tm_positivity(f, 1e-9).matrix_dim == word_count(n, cutoff) * p


def unitary(rng, p):
    q, r = np.linalg.qr(rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)))
    return q * (np.diagonal(r) / abs(np.diagonal(r)))


def tree_case(case, n, m, p):
    """Data for the dense path one level down: 2 I + small or large
    coefficients (feasible, infeasible); T_m = I (x) b_0 for an indefinite
    b_0 (zero border); b_0 = I and b_w = U_{w_1} ... U_{w_k} / n^(k/2) with
    U_i unitary, the singular boundary data b_i = U_i / sqrt(n) and their
    extension, so lambda_min(T_m) = 0 for m >= 1 (singular); or coordinate
    0 split off as 0.5 I below the rest, so T_{m-1}'s lowest eigenvectors
    live there, the border is orthogonal to them and lambda_min(T_m) =
    lambda_1(T_{m-1}) = 0.5 (orthogonal)."""
    rng = np.random.default_rng(100 * n + 10 * m + p)
    if case == "zero border":
        return FreeSeries(n, m, (p, p), {(): random_coeffs(rng, 1, 0, p)[()]})
    if case == "singular":
        u = [unitary(rng, p) / math.sqrt(n) for _ in range(n)]
        coeffs = {(): np.eye(p)}
        for w in GradedBasis(n, m).words[1:]:
            coeffs[w] = coeffs[w[:-1]] @ u[w[-1] - 1]
        return FreeSeries(n, m, (p, p), coeffs)
    scale = {"feasible": 0.02, "infeasible": 3.0, "orthogonal": 0.01}[case]
    coeffs = {w: scale * c for w, c in random_coeffs(rng, n, m, p).items()}
    coeffs[()] = 2.0 * np.eye(p)
    if case == "orthogonal":
        for c in coeffs.values():
            c[0, :] = c[:, 0] = 0.0
        coeffs[()][0, 0] = 0.5
    return FreeSeries(n, m, (p, p), coeffs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n,p,m,case", [
    (n, p, m, case) for n in (2, 3) for p in (1, 2, 3) for m in (0, 1, 3)
    for case in ("feasible", "infeasible", "zero border", "singular", "orthogonal")
    if p > 1 or case != "orthogonal"  # a scalar T_0's orthogonal border is the zero border
])
def test_dense_min_eig_one_level_down_matches_eigvalsh(n, p, m, case):
    """Below DENSE_DIM, for n >= 2 and m >= 1, min_eig comes from one eigh
    of T_{m-1} and the secular equation of the border (tree_min_eig): it
    is within 16 eps ||T_m|| of eigvalsh(T_m), with the same verdict, on
    the data of tree_case, p >= n among the shapes."""
    f = tree_case(case, n, m, p)
    t = tp.assemble_T(f, m)
    me, norm = min_eig(t), np.linalg.norm(t, 2)
    rec = tp.tm_positivity(f, 1e-9, m)
    assert rec.min_eig_atol is None and rec.matrix_dim == len(t) <= tp.DENSE_DIM
    assert abs(rec.min_eig - me) <= 16 * EPS * norm
    assert abs(me + 1e-9) > 16 * EPS * norm and rec.feasible == (me >= -1e-9)
    if m:
        assert tp.tree_min_eig(f, m) == rec.min_eig
        assert rec.feasible == (case != "infeasible") or case == "zero border"
    if case == "singular":
        assert abs(rec.min_eig - (m == 0)) <= 1e-14
    if case == "zero border":
        assert abs(rec.min_eig - min_eig(f.constant_term())) <= 16 * EPS * norm
    if case == "orthogonal" and m:
        assert abs(rec.min_eig - min_eig(tp.assemble_T(f, m - 1))) <= 16 * EPS * norm
        assert abs(rec.min_eig - 0.5) <= 16 * EPS * norm


@pytest.mark.parametrize("n,m,p", [(2, 1, 1), (2, 3, 2), (3, 3, 3), (2, 6, 1), (3, 4, 1), (3, 4, 2)])
def test_letter_blocks_of_T_m_are_T_m_minus_1(n, m, p):
    """The layout tree_min_eig reads T_m in without assembling it: in
    T_m's (p, d, p, d) view the block of each letter i, [..., i::n], is
    assemble_T(f, m - 1) bit for bit, blocks of different letters are
    zero, and the root row holds b_0 and then b_w* for the words w != ()
    in graded order."""
    f = random_series(np.random.default_rng(n + m + p), n, m, p)
    t, below = tp.assemble_T(f, m), tp.assemble_T(f, m - 1)
    d = word_count(n, m)
    t4 = t.reshape(p, d, p, d)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            block = t4[:, i::n, :, j::n].reshape(len(below), -1)
            assert np.array_equal(block, below if i == j else np.zeros_like(below))
    assert np.array_equal(t4[:, 0, :, 0], tp.check_hermitian(f.constant_term()))
    border = np.concatenate([f.dense(k) for k in range(1, m + 1)])
    assert np.array_equal(t4[:, 0, :, 1:], adjoint(border))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_tm_positivity_rejects_a_non_finite_tolerance_first(monkeypatch, tol):
    def never(*args, **kwargs):
        raise AssertionError("assembled or factored")

    monkeypatch.setattr(tp, "assemble_T", never)
    monkeypatch.setattr(tp, "nested_factor", never)
    f = random_series(np.random.default_rng(0), 2, 1, 1, scale=0.05)
    for m in (None, 1, 9):  # dense, and past DENSE_DIM
        with pytest.raises(InputError, match="not finite"):
            tp.tm_positivity(f, tol, m)
