"""Oracle tests for the two coefficient-times-word kernels, fock.shift_sum
and fock.word_sum, and for the paths built on them.

Each path is compared with the Kronecker sum it stands for, with shifts
formed as products of the creation matrices and word products formed
directly by OperatorTuple.word; the multi-analytic matrix of CF data
and the divisibility kernel of a series also with their entrywise
constructions, and the two structure tests with dense kron(I, R_i)
products.
"""

import numpy as np
import pytest

from freefock import caratheodory as cara
from freefock import linalg
from freefock import pluriharmonic as ph
from freefock import series as fs
from freefock import transforms as tr
from freefock.errors import InputError, SizeLimitError
from freefock.fock import (
    FockTrunc,
    OperatorTuple,
    delta_defect,
    poisson_kernel,
    poisson_transform,
    poisson_transform_word_symbol,
    random_nilpotent_tuple,
    reconstruction_operator,
    shift_sum,
    word_sum,
)
from freefock.linalg import adjoint, kron, min_eig_hermitian
from freefock.selftest import generate_feasible_problem
from freefock.toeplitz import assemble_T
from freefock.words import GradedBasis, left_quotient, reverse

CASES = [(n, p) for n in (1, 2, 3) for p in (1, 2)]


def s_word(ft, w):
    """S_w = S_{i1} ... S_{ik}: e_b -> e_{w b}."""
    out = np.eye(ft.dim, dtype=complex)
    for i in w:
        out = out @ ft.left_creation(i)
    return out


def r_word(ft, w):
    """R_w = R_{i1} ... R_{ik}: e_b -> e_{b reverse(w)}."""
    out = np.eye(ft.dim, dtype=complex)
    for i in w:
        out = out @ ft.right_creation(i)
    return out


def kron_sum(terms, size):
    out = np.zeros((size, size), dtype=complex)
    for c, m in terms:
        out += kron(c, m)
    return out


def gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_coeffs(rng, n, deg, p, min_degree=0):
    return {w: gaussian(rng, (p, p)) for w in GradedBasis(n, deg).words if len(w) >= min_degree}


def random_symbol(rng, n, p, deg=3):
    """Pluriharmonic function with dense random A (from degree 0) and B (from 1)."""
    return ph.PluriharmonicFn(*(
        fs.FreeSeries(n, deg, (p, p), random_coeffs(rng, n, deg, p, min_degree=k)) for k in (0, 1)
    ))


def blocks_of(coeffs, n, p):
    """The per-degree blocks {k: (codes, stack)} of a word -> coefficient map."""
    return fs.FreeSeries(n, max(map(len, coeffs), default=0), (p, p), coeffs).blocks


def rel_dev(got, want):
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1e-300)


# -- shift_sum and its callers ---------------------------------------------


@pytest.mark.parametrize("n,p", CASES)
def test_shift_sum_matches_kron_sum(n, p):
    rng = np.random.default_rng(10 * n + p)
    ft = FockTrunc(n, 2)
    lower = random_coeffs(rng, n, 3, p)  # degree-3 words reach no block
    upper = random_coeffs(rng, n, 3, p, min_degree=1)
    size = p * ft.dim

    got = shift_sum(n, 2, p, blocks_of(lower, n, p), blocks_of(upper, n, p))
    want = kron_sum(
        [(c, s_word(ft, w)) for w, c in lower.items()]
        + [(c, s_word(ft, w).T) for w, c in upper.items()],
        size,
    )
    assert rel_dev(got, want) <= 1e-14

    got = shift_sum(n, 2, p, blocks_of(lower, n, p), blocks_of(upper, n, p), append=True)
    want = kron_sum(
        [(c, r_word(ft, reverse(w))) for w, c in lower.items()]
        + [(c, r_word(ft, reverse(w)).T) for w, c in upper.items()],
        size,
    )
    assert rel_dev(got, want) <= 1e-14

    with pytest.raises(InputError):  # M_() = I would meet itself transposed
        shift_sum(n, 2, p, blocks_of(lower, n, p), blocks_of({(): lower[()]}, n, p))
    with pytest.raises(InputError):  # P^(-1) has no words
        shift_sum(n, -1, p, blocks_of(lower, n, p))


@pytest.mark.parametrize("n,p", CASES)
def test_assemble_T_matches_kron_sum(n, p):
    rng = np.random.default_rng(20 * n + p)
    coeffs = random_coeffs(rng, n, 2, p)
    coeffs[()] = coeffs[()] + adjoint(coeffs[()])
    ft = FockTrunc(n, 2)
    want = kron(coeffs[()], np.eye(ft.dim)) + kron_sum(
        [(c, s_word(ft, w)) for w, c in coeffs.items() if w]
        + [(adjoint(c), s_word(ft, w).T) for w, c in coeffs.items() if w],
        p * ft.dim,
    )
    assert rel_dev(assemble_T(fs.FreeSeries(n, 2, (p, p), coeffs)), want) <= 1e-14


@pytest.mark.parametrize("n,p", CASES)
def test_eval_at_creation_matches_kron_sum(n, p):
    rng = np.random.default_rng(30 * n + p)
    f = fs.FreeSeries(n, 3, (p, p), random_coeffs(rng, n, 3, p))
    for m in (0, 1, 2):  # cutoff 3 exceeds every truncation
        ft = FockTrunc(n, m)
        want = kron_sum([(c, s_word(ft, w)) for w, c in f.coeffs.items()], p * ft.dim)
        assert rel_dev(fs.eval_at_creation(f, m), want) <= 1e-14


@pytest.mark.parametrize("n,p", CASES)
def test_radial_boundary_matches_kron_sum(n, p):
    rng = np.random.default_rng(40 * n + p)
    h = random_symbol(rng, n, p)
    for r in (0.0, 0.6, 1.0):
        ft = FockTrunc(n, 2)
        want = kron(h.analytic.coefficient(()), np.eye(ft.dim)) + kron_sum(
            [(c, r ** len(w) * s_word(ft, w)) for w, c in h.analytic.coeffs.items() if w]
            + [(c, r ** len(w) * s_word(ft, w).T) for w, c in h.coanalytic.coeffs.items()],
            p * ft.dim,
        )
        assert rel_dev(ph.radial_boundary(h, r, 2), want) <= 1e-14


def cf_matrix(prob):
    """The multi-analytic matrix [A_{a,b}] of CF data entrywise: block
    (a, b) is A_{a \\_l b} when a >=_l b, zero otherwise."""
    basis = GradedBasis(prob.n, prob.m)
    d, p = basis.size, prob.block_size
    b4 = np.zeros((d, d, p, p), dtype=complex)
    for a, wa in enumerate(basis.words):
        for b, wb in enumerate(basis.words):
            s = () if wa == wb else left_quotient(wa, wb)
            if s is not None and s in prob.data.coeffs:
                b4[a, b] = prob.data.coeffs[s]
    return b4.transpose(2, 0, 3, 1).reshape(d * p, d * p)


def kernel_entrywise(f):
    """The left-divisibility kernel of a series entrywise: K(a, a) =
    A_0 + A_0*, K(a, b) = A*_{reverse(b \\_l a)} when b >_l a, the
    unstarred mirror when a >_l b, zero otherwise."""
    basis = GradedBasis(f.n, f.cutoff)
    d, p = basis.size, f.shape[0]
    a0 = f.coefficient(())
    b4 = np.zeros((d, d, p, p), dtype=complex)
    for a, wa in enumerate(basis.words):
        for b, wb in enumerate(basis.words):
            if a == b:
                b4[a, b] = a0 + adjoint(a0)
            elif (s := left_quotient(wb, wa)) is not None:
                b4[a, b] = adjoint(f.coefficient(reverse(s)))
            elif (s := left_quotient(wa, wb)) is not None:
                b4[a, b] = f.coefficient(reverse(s))
    return b4.transpose(2, 0, 3, 1).reshape(d * p, d * p)


@pytest.mark.parametrize("n,p", CASES)
def test_cf_check_cross_check_matches_kron_sum(n, p):
    rng = np.random.default_rng(50 * n + p)
    prob = cara.CFProblem(fs.FreeSeries(n, 2, (p, p), random_coeffs(rng, n, 2, p)))
    ft = FockTrunc(n, 2)
    want = kron_sum(
        [(c, r_word(ft, reverse(w))) for w, c in prob.data.coeffs.items()], p * ft.dim
    )
    got = shift_sum(n, 2, p, prob.data.blocks, append=True)
    assert rel_dev(got, want) <= 1e-14
    assert np.array_equal(cf_matrix(prob), got)
    rep = cara.cf_check(prob)
    assert rep.norm == pytest.approx(np.linalg.norm(want, 2), rel=1e-12)


@pytest.mark.parametrize("n,m,p", [(1, 4, 1), (2, 3, 2), (3, 2, 1), (2, 4, 1)])
def test_kernel_from_series_matches_entrywise(n, m, p):
    rng = np.random.default_rng(10 * n + m + p)
    dense = random_coeffs(rng, n, m, p)
    sparse = {w: c for k, (w, c) in enumerate(dense.items()) if k % 3 == 1}
    for coeffs in (dense, sparse):
        f = fs.FreeSeries(n, m, (p, p), coeffs)
        k = tr.kernel_from_series(f)
        assert np.array_equal(k, kernel_entrywise(f))


@pytest.mark.parametrize("n,p", CASES)
def test_radial_compressions_match_kron_sum(n, p):
    rng = np.random.default_rng(60 * n + p)
    coeffs = random_coeffs(rng, n, 2, p)
    coeffs[()] = coeffs[()] + 4.0 * np.eye(p)
    f = fs.FreeSeries(n, 2, (p, p), coeffs)
    grid = [0.3, 0.9]
    half = (f.coeffs[()] + adjoint(f.coeffs[()])) / 2.0
    want = np.inf
    for m in range(3):
        ft = FockTrunc(n, m)
        for r in grid:
            terms = []
            for w, c in f.coeffs.items():
                if w:
                    rw = r ** len(w) * r_word(ft, w)
                    terms += [(0.5 * c, rw), (0.5 * adjoint(c), rw.T)]
            ar = kron(half, np.eye(ft.dim)) + kron_sum(terms, p * ft.dim)
            want = min(want, min_eig_hermitian(ar))
    got = tr.positivity_equivalence_check(f, m_max=2, r_grid=grid).min_eigs["radial"]
    assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


# -- structure tests through index maps -------------------------------------


def commutator_devs(Y, ft):
    """||Y (I (x) R_i) - (I (x) R_i) Y|| for each i, from dense products."""
    eye = np.eye(Y.shape[0] // ft.dim, dtype=complex)
    out = []
    for i in range(1, ft.n + 1):
        r = kron(eye, ft.right_creation(i))
        out.append(np.linalg.norm(Y @ r - r @ Y))
    return out


def compression_devs(A, ft, margin):
    """||Q ((I (x) R_i*) A (I (x) R_j) - d_ij A) Q|| for each i, j, with Q
    the projection onto degree <= N - margin, from dense products."""
    eye = np.eye(A.shape[0] // ft.dim, dtype=complex)
    q = kron(eye, ft.degree_projection(ft.N - margin))
    out = []
    for i in range(1, ft.n + 1):
        ri = kron(eye, ft.right_creation(i))
        for j in range(1, ft.n + 1):
            rj = kron(eye, ft.right_creation(j))
            d = adjoint(ri) @ A @ rj - (A if i == j else 0.0)
            out.append(np.linalg.norm(q @ d @ q, 2))
    return out


def multi_analytic(Y, ft, tol):
    try:
        fs.check_multi_analytic(Y, ft, tol)
    except InputError:
        return False
    return True


@pytest.mark.parametrize("n,p", CASES)
def test_structure_checks_match_kron_products(n, p):
    # each verdict flips exactly where the dense deviation crosses the
    # tolerance, so the index-map deviations equal the dense ones
    rng = np.random.default_rng(110 * n + p)
    ft = FockTrunc(n, 3)
    size = p * ft.dim
    f = fs.FreeSeries(n, 3, (p, p), random_coeffs(rng, n, 3, p))
    h = random_symbol(rng, n, p)
    y = fs.eval_at_creation(f, 3)
    a = ph.radial_boundary(h, 0.7, 3)
    noise = gaussian(rng, (size, size))
    s1 = kron(np.eye(p), ft.left_creation(1))
    for Y in (y, y + 1e-6 * noise, noise, kron(np.eye(p), ft.right_creation(1))):
        scale = 1.0 + np.linalg.norm(Y)
        worst = max(commutator_devs(Y, ft))
        assert multi_analytic(Y, ft, 1e-10) == (worst <= 1e-10 * scale)
        if worst > 0:
            assert multi_analytic(Y, ft, worst / scale * (1 + 1e-9))
            assert not multi_analytic(Y, ft, worst / scale * (1 - 1e-9))
    for A in (a, np.eye(size, dtype=complex), a + 1e-6 * noise, s1 @ adjoint(s1), noise):
        scale = 1.0 + np.linalg.norm(A, 2)
        for margin in (1, 2, 3):
            worst = max(compression_devs(A, ft, margin))
            assert ph.is_multi_toeplitz(A, ft, margin, 1e-10) == (worst <= 1e-10 * scale)
            if worst > 1e-12 * scale:
                assert ph.is_multi_toeplitz(A, ft, margin, worst / scale * (1 + 1e-9))
                assert not ph.is_multi_toeplitz(A, ft, margin, worst / scale * (1 - 1e-9))
    with pytest.raises(InputError):
        ph.is_multi_toeplitz(a, ft, 4, 1e-10)


# -- word_sum and its callers ----------------------------------------------


@pytest.mark.parametrize("n,p", CASES)
def test_word_sum_matches_kron_sum(n, p):
    rng = np.random.default_rng(70 * n + p)
    X = random_nilpotent_tuple(rng, n, 3, row_norm=0.8)
    q = X.dim
    dense = random_coeffs(rng, n, 3, p)
    words = list(dense)
    rng.shuffle(words)
    sparse = {w: dense[w] for w in words[: len(words) // 3]}  # prefixes missing
    # every word up to degree 2, two of degree 3: sparse over full degrees
    mixed = {w: c for w, c in dense.items() if len(w) < 3 or w[:2] == (1, 1) and w[2] < 3}
    for coeffs in (dense, sparse, mixed):
        want = kron_sum([(c, X.word(w)) for w, c in coeffs.items()], p * q)
        assert rel_dev(word_sum(X, p, blocks_of(coeffs, n, p)), want) <= 1e-14
    assert not word_sum(X, p, {}).any()
    assert word_sum(X, p, {}).shape == (p * q, p * q)

    # deep words at a unitary tuple, whose products do not decay: a
    # one-letter chain of depth 24, one degree only, so that every
    # shallower degree of the prefixes carries no coefficient, and over
    # two letters or more the words (2, 1)^j, j <= 35, up to degree 70,
    # whose codes are Python ints
    U = OperatorTuple(tuple(np.linalg.qr(gaussian(rng, (3, 3)))[0] for _ in range(n)))
    chain = {(1,) * k: gaussian(rng, (p, p)) for k in range(25)}
    deep = 6 if n < 3 else 4
    cases = [chain, random_coeffs(rng, n, deep, p, min_degree=deep)]
    if n >= 2:
        cases.append({(2, 1) * j: gaussian(rng, (p, p)) for j in range(1, 36)})
    for coeffs in cases:
        want = kron_sum([(c, U.word(w)) for w, c in coeffs.items()], p * q)
        assert rel_dev(word_sum(U, p, blocks_of(coeffs, n, p)), want) <= 1e-14


@pytest.mark.parametrize("n,p", CASES)
def test_eval_report_matches_kron_sum(n, p):
    rng = np.random.default_rng(80 * n + p)
    f = fs.FreeSeries(n, 3, (p, p), random_coeffs(rng, n, 3, p))
    X = random_nilpotent_tuple(rng, n, 3, row_norm=0.7)
    want = kron_sum([(c, X.word(w)) for w, c in f.coeffs.items()], p * X.dim)
    assert rel_dev(fs.eval_report(f, X).value, want) <= 1e-14


def _nilpotent_check_reference(prob, ext, samples, seed):
    """The nilpotent-positivity value of verify_solution, by kron sums."""
    rng = np.random.default_rng(seed)
    b0 = prob.data.constant_term()
    worst = np.inf
    for _ in range(samples):
        X = random_nilpotent_tuple(
            rng, prob.n, ext.series.cutoff + 1, row_norm=float(rng.uniform(0.2, 0.95))
        )
        g = kron(b0 / 2.0, np.eye(X.dim))
        for w, c in ext.series.coeffs.items():
            if w:
                g += kron(c, X.word(w))
        worst = min(worst, min_eig_hermitian((g + adjoint(g)) / 2.0))
    return worst


@pytest.mark.parametrize("p", (1, 2))
def test_verify_solution_matches_kron_reference(p):
    rng = np.random.default_rng(p)
    if p == 1:
        prob = generate_feasible_problem(rng, 2, 2)
    else:
        coeffs = random_coeffs(rng, 2, 1, p, min_degree=1)
        coeffs = {w: 0.1 * c for w, c in coeffs.items()}
        coeffs[()] = np.eye(p)
        prob = cara.CaratheodoryProblem(fs.FreeSeries(2, 1, (p, p), coeffs))
    ext = cara.extend(prob, 3)
    rep = cara.verify_solution(prob, ext, samples=6, seed=3)
    want = _nilpotent_check_reference(prob, ext, 6, 3)
    assert rep.passed
    assert abs(rep.checks["nilpotent_positive"][1] - want) <= 1e-14 * max(1.0, abs(want))


@pytest.mark.parametrize("n,M,p", [(2, 7, 1), (3, 4, 2), (1, 9, 2)])
def test_verify_solution_chunks_match_word_sum_bitwise(n, M, p):
    """The samples go through one fock.word_products in chunks of several
    tuples; each g equals word_sum at that tuple bit for bit."""
    rng = np.random.default_rng(n + M + p)
    coeffs = {w: 0.2 / n * c for w, c in random_coeffs(rng, n, 1, p, min_degree=1).items()}
    prob = cara.CaratheodoryProblem(fs.FreeSeries(n, 1, (p, p), {(): np.eye(p), **coeffs}))
    ext = cara.extend(prob, M)
    rng = np.random.default_rng(5)
    terms = blocks_of({**ext.series.coeffs, (): prob.data.constant_term() / 2.0}, n, p)
    worst = np.inf
    for _ in range(7):
        X = random_nilpotent_tuple(rng, n, M + 1, row_norm=float(rng.uniform(0.2, 0.95)))
        g = word_sum(X, p, terms)
        worst = min(worst, min_eig_hermitian((g + adjoint(g)) / 2.0))
    assert cara.verify_solution(prob, ext, samples=7, seed=5).checks["nilpotent_positive"][1] == worst


def test_verify_solution_degree_zero_and_no_samples():
    prob = cara.CaratheodoryProblem(fs.FreeSeries(2, 0, (2, 2), {(): np.diag([2.0, 0.5])}))
    ext = cara.ExtensionResult(prob.data, {})
    rep = cara.verify_solution(prob, ext, samples=3, seed=1)
    assert rep.passed and rep.checks["nilpotent_positive"][1] == pytest.approx(0.25)
    for samples in (0, -3):  # no sample would leave the check at +inf
        with pytest.raises(InputError):
            cara.verify_solution(prob, cara.extend(prob, 2), samples=samples)


def test_verify_solution_reuses_positivity_of_its_own_series_only():
    prob = cara.CaratheodoryProblem(fs.FreeSeries(1, 1, (1, 1), {(): [[1.0]], (1,): [[0.4]]}))
    ext = cara.extend(prob, 3)
    source, tm = ext.tm
    assert source is ext.series and tm.min_eig == ext.certificate["min_eig_tm"]
    rep = cara.verify_solution(prob, ext, samples=2)
    assert rep.checks["extension_psd"] == (True, tm.min_eig)
    # the same record under a corrupted series is not read: T_3 is recomputed
    bad = fs.FreeSeries(1, 3, (1, 1), {**ext.series.coeffs, (1, 1, 1): [[1.0]]})
    rep = cara.verify_solution(prob, cara.ExtensionResult(bad, ext.certificate, ext.tm), samples=2)
    assert rep.checks["extension_psd"][1] == np.linalg.eigvalsh(assemble_T(bad))[0] < 0
    assert not rep.passed


# -- Poisson kernel and transforms -----------------------------------------


@pytest.mark.parametrize("n,q", CASES)
def test_poisson_kernel_and_transform_match_dense(n, q):
    rng = np.random.default_rng(90 * n + q)
    ft = FockTrunc(n, 3)
    X = random_nilpotent_tuple(rng, n, 3, row_norm=0.8)
    p = X.dim
    want_k = np.vstack([delta_defect(X) @ adjoint(X.word(w)) for w in GradedBasis(n, 3).words])
    K = poisson_kernel(ft, X)
    assert rel_dev(K, want_k) <= 1e-14

    U = gaussian(rng, (q * ft.dim, q * ft.dim))
    lifted = kron(np.eye(q), K)
    want = adjoint(lifted) @ kron(U, np.eye(p)) @ lifted
    assert rel_dev(poisson_transform(ft, U, X, coeff_dim=q), want) <= 1e-13

    for a, b in (((), ()), ((1,), ()), ((n,), (1, n)), ((1, 1, 1), (n,))):
        F = kron(s_word(ft, a) @ s_word(ft, b).T, np.eye(p))
        got = poisson_transform_word_symbol(ft, a, b, X, kernel=K)
        assert rel_dev(got, adjoint(K) @ F @ K) <= 1e-13


def test_transforms_of_functionals_match_kron_sums():
    rng = np.random.default_rng(11)
    ft = FockTrunc(2, 4)
    v = np.zeros(ft.dim, dtype=complex)
    v[:7] = gaussian(rng, 7)
    mu = tr.from_vector_states(ft, [(1.0, v, v)], 2)
    X = random_nilpotent_tuple(rng, 2, 3, row_norm=0.6)
    eye = np.eye(X.dim)
    fwd = [(c, adjoint(X.word(w))) for w, c in mu.symbol.coanalytic.coeffs.items()]
    bwd = [(c, X.word(w)) for w, c in mu.symbol.analytic.coeffs.items() if w]
    size = X.dim
    base = kron(mu.unit, eye)
    assert rel_dev(tr.poisson_transform_of(mu, X), base + kron_sum(fwd + bwd, size)) <= 1e-14
    assert rel_dev(tr.fantappie_transform(mu, X), base + kron_sum(bwd, size)) <= 1e-14
    twice = [(2.0 * c, m) for c, m in bwd]
    assert rel_dev(tr.herglotz_transform(mu, X), base + kron_sum(twice, size)) <= 1e-14


@pytest.mark.parametrize("n,p", [(1, 1), (2, 1), (2, 2)])
def test_series_level_reductions_match_operator_cayley(n, p):
    rng = np.random.default_rng(100 * n + p)
    m = 2
    coeffs = {w: 0.1 * gaussian(rng, (p, p)) for w in GradedBasis(n, m).words}
    coeffs[()] = np.eye(p, dtype=complex)
    prob = cara.CaratheodoryProblem(fs.FreeSeries(n, m, (p, p), coeffs))
    ft = FockTrunc(n, m)
    y = kron_sum([(c, s_word(ft, w)) for w, c in coeffs.items() if w], p * ft.dim)
    want, _ = fs.extract_coeffs(fs.truncated_cayley(y, "inverse", ft), ft, p)
    got = cara.cayley_route(prob, reg_eps=0.0).data
    for w in GradedBasis(n, m).words[1:]:
        assert np.max(np.abs(got.coefficient(w) - want.get(w, 0.0))) <= 1e-14

    cf = cara.CFProblem(got.scale(0.3))
    ft1 = FockTrunc(n, m + 1)
    b = kron_sum([(c, s_word(ft1, (1,) + w)) for w, c in cf.data.coeffs.items()], p * ft1.dim)
    want, _ = fs.extract_coeffs(fs.truncated_cayley(b, "forward", ft1), ft1, p)
    lifted = cara.cf_to_caratheodory(cf).data
    for w in GradedBasis(n, m + 1).words[1:]:
        assert np.max(np.abs(lifted.coefficient(w) - want.get(w, 0.0))) <= 1e-14


# -- size checks before allocation -----------------------------------------


@pytest.fixture
def cap8():
    old = linalg.MAX_DIM
    linalg.set_max_dim(8)
    yield
    linalg.set_max_dim(old)


def test_kernels_check_size_before_allocating(cap8):
    # every case below is 9 to 12 on a side; none is allocated
    ft = FockTrunc(1, 3)
    X = OperatorTuple((np.zeros((3, 3)),))
    f = fs.FreeSeries(1, 1, (3, 3), {(1,): np.eye(3)})
    h = ph.PluriharmonicFn(
        fs.FreeSeries(1, 1, (3, 3), {(): np.eye(3)}), fs.FreeSeries.zero(1, 1, (3, 3))
    )
    with pytest.raises(SizeLimitError):
        fs.eval_at_creation(f, 3)
    with pytest.raises(SizeLimitError):
        ph.radial_boundary(h, 0.5, 3)
    with pytest.raises(SizeLimitError):
        reconstruction_operator(ft, X)
    with pytest.raises(SizeLimitError):
        shift_sum(1, 3, 3, {})
    with pytest.raises(SizeLimitError):
        word_sum(X, 3, {})
    # nor are the creation matrices and projections of P^(3) over two
    # letters, 15 on a side, or the Poisson kernel of a 5 x 5 tuple on
    # P^(3) over one, 4 * 5^2 = 100 > 8^2 entries; both spaces are in the cap
    ft = FockTrunc(2, 3)
    for build in (ft.left_creation, ft.right_creation, ft.degree_projection):
        with pytest.raises(SizeLimitError):
            build(1)
    with pytest.raises(SizeLimitError):
        poisson_kernel(FockTrunc(1, 3), OperatorTuple((np.zeros((5, 5)),)))
