import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freefock import caratheodory as cara
from freefock import multianalytic as ma
from freefock.errors import ScopeError
from freefock.fock import shift_sum
from freefock.linalg import adjoint
from freefock.multianalytic import hinf_norm
from freefock.series import FreeSeries, eval_at_creation, random_series
from freefock.words import GradedBasis

ONE = np.array([[1.0]])


def gaussian_series(rng, n, m, p, scale=0.3):
    return random_series(rng, n, m, (p, p), scale=scale)


@pytest.mark.parametrize("n,m,p", [(2, 4, 1), (2, 3, 2), (3, 3, 2), (2, 5, 1)])
def test_norm_inertia_counts_singular_values(n, m, p):
    """The negative pivots of sigma^2 I - A*A number the singular values
    of A = f(S^(m)) above sigma, at sigmas between distinct ones, and the
    stopped factorisation certifies sigma (as certified_norm reads it:
    all levels, no negative or zero pivot) exactly above the norm."""
    rng = np.random.default_rng(10 * n + m + p)
    f = gaussian_series(rng, n, m, p, scale=float(rng.uniform(0.2, 1.5)))
    sv = np.linalg.svd(eval_at_creation(f, m), compute_uv=False)
    levels = np.unique(np.round(sv, 9))
    sigmas = list((levels[1:] + levels[:-1]) / 2.0)[::2] + [0.5 * sv[-1], 1.5 * sv[0]]
    op = ma.MultiAnalytic(f, m)

    def certifies(sigma):
        fac = op.factor(sigma, stop=True)
        return fac.levels == m and fac.inertia()[:2] == (0, 0)

    for sigma in sigmas:
        fac = op.factor(sigma)
        assert fac.inertia()[0] == int((sv > sigma).sum())
        assert certifies(sigma) == (sv[0] < sigma)
    # sharp at the norm: the certificate is tight to far below NORM_RTOL
    assert not certifies(sv[0] * (1 - 1e-10))
    assert certifies(sv[0] * (1 + 1e-10))


@pytest.mark.parametrize("n,m,p", [(2, 5, 1), (2, 4, 3), (3, 4, 1), (2, 5, 2), (2, 6, 1),
                                   (3, 4, 2), (2, 8, 1)])
def test_structured_norm_matches_svd(n, m, p):
    """Below, near and above NORM_DENSE_DIM: the certified value agrees with
    the dense SVD to 1e-12 and through hinf_norm on either path."""
    rng = np.random.default_rng(100 * n + 10 * m + p)
    f = gaussian_series(rng, n, m, p)
    want = np.linalg.norm(eval_at_creation(f, m), 2)
    got = ma.certified_norm(f, m)
    assert got.rtol == ma.NORM_RTOL and got.starts >= 1
    assert abs(got.value - want) <= 1e-12 * want
    rep = hinf_norm(f, m)
    assert abs(rep.value - want) <= 1e-12 * want
    assert (rep.rtol is None) == (p * len(GradedBasis(n, m)) <= ma.NORM_DENSE_DIM)


def test_structured_norm_of_zero_series_is_zero():
    zero = FreeSeries(2, 7, (2, 2), {(1,): np.zeros((2, 2))})
    assert ma.certified_norm(zero, 7).value == 0.0
    assert hinf_norm(zero, 7).value == 0.0
    # coefficients above the truncation do not count
    high = FreeSeries(2, 8, (1, 1), {(1, 2, 1, 2, 1, 2, 1, 2): ONE})
    assert ma.certified_norm(high, 7).value == 0.0


def test_structured_norm_bounds_the_gram_norm():
    """The value is at least ||sum f_w* f_w||^(1/2), the first Lanczos
    value (bench/check.py's lower bound)."""
    rng = np.random.default_rng(7)
    for n, m, p in [(2, 6, 1), (3, 4, 2), (2, 5, 2)]:
        f = gaussian_series(rng, n, m, p, scale=0.5)
        gram = sum(adjoint(c) @ c for c in f.coeffs.values())
        assert ma.certified_norm(f, m).value >= np.sqrt(np.linalg.eigvalsh(gram)[-1]) * (1 - 1e-14)


def test_structured_norm_restarts_from_a_negative_pivot():
    """f = diag(1.1, 0)(S_1 + S_2) + diag(0, 1)(I + S_1 S_1): the top
    eigenvector of sum f_w* f_w lies in the first summand, whose norm
    1.1 sqrt(2) is below the second's, so the first Lanczos run cannot
    reach the top; the certification fails there and its negative pivot
    starts a second run."""
    m = 4
    f = FreeSeries(2, m, (2, 2), {(1,): np.diag([1.1, 0.0]), (2,): np.diag([1.1, 0.0]),
                                  (): np.diag([0.0, 1.0]), (1, 1): np.diag([0.0, 1.0])})
    want = np.linalg.norm(eval_at_creation(f, m), 2)
    got = ma.certified_norm(f, m)
    assert got.starts >= 2
    assert abs(got.value - want) <= 1e-12 * want
    assert want > 1.1 * np.sqrt(2.0) + 0.1


CI_SERIES = FreeSeries(2, 2, (1, 1), {(): 0.5 * ONE, (1,): (0.3 + 0.2j) * ONE, (2, 1): -0.4 * ONE})


@pytest.mark.parametrize("case", [(2, 6, 1), (2, 7, 1), (3, 4, 2), 6, 8, 9])
def test_the_certificate_guards_the_value_without_lanczos(case, monkeypatch):
    """With _lanczos returning its start vector unchanged, certified_norm
    has only the explicit ratio, the factorisation and its Newton restarts:
    it raises ScopeError or returns a value v with v <= ||A|| (1 + 1e-12)
    and ||A|| <= v (1 + NORM_RTOL), never an uncertified one.  Random
    series and the CI series at m = 6, 8, 9."""
    if isinstance(case, tuple):
        n, m, p = case
        f = gaussian_series(np.random.default_rng(100 * n + 10 * m + p), n, m, p)
    else:
        f, m = CI_SERIES, case
    want = np.linalg.norm(eval_at_creation(f, m), 2)
    monkeypatch.setattr(ma, "_lanczos", lambda op, x0, steps: x0)
    try:
        got = ma.certified_norm(f, m)
    except ScopeError:
        return
    assert got.value <= want * (1 + 1e-12) and want <= got.value * (1 + ma.NORM_RTOL)


def test_plain_lanczos_past_thirty_steps_matches_svd(monkeypatch):
    """The CI series at m = 9 (side 1023): Lanczos runs at least 30 steps
    with no reorthogonalisation, where its basis drifts from orthogonality,
    and the certified value still agrees with the dense SVD to 1e-12 from
    one run."""
    m, calls, steps = 9, [0], []
    apply, lanczos = ma.MultiAnalytic.apply, ma._lanczos

    def counted(self, x):  # one product a Lanczos step
        calls[0] += 1
        return apply(self, x)

    def spy(*args):
        before = calls[0]
        x = lanczos(*args)
        steps.append(calls[0] - before)
        return x

    monkeypatch.setattr(ma.MultiAnalytic, "apply", counted)
    monkeypatch.setattr(ma, "_lanczos", spy)
    want = np.linalg.norm(eval_at_creation(CI_SERIES, m), 2)
    got = ma.certified_norm(CI_SERIES, m)
    assert len(GradedBasis(2, m)) == 1023 and got.starts == 1 and steps[0] >= 30
    assert abs(got.value - want) <= 1e-12 * want


@pytest.mark.parametrize("n,m,p", [(2, 6, 2), (3, 4, 3)])
def test_structured_norm_of_a_repeated_top_singular_value(n, m, p):
    """f = sum c_w I_p with scalar c_w: f(S^(m)) is a scalar operator
    tensored with I_p, so its top singular value has multiplicity p.  One
    Lanczos run still reaches it, and the one factorisation certifies it."""
    rng = np.random.default_rng(10 * n + m + p)
    coeffs = {w: complex(rng.standard_normal(), rng.standard_normal()) * 0.3 * np.eye(p)
              for w in GradedBasis(n, m).words}
    f = FreeSeries(n, m, (p, p), coeffs)
    sv = np.linalg.svd(eval_at_creation(f, m), compute_uv=False)
    assert np.allclose(sv[:p], sv[0], rtol=1e-12, atol=0.0)
    got = hinf_norm(f, m)
    assert got.rtol == ma.NORM_RTOL and got.starts == 1
    assert abs(got.value - sv[0]) <= 1e-12 * sv[0]


def test_structured_norm_scales_exactly():
    """The series is rescaled by a power of two: tiny and huge data give
    the same value up to that scale."""
    rng = np.random.default_rng(8)
    f = gaussian_series(rng, 2, 6, 1)
    base = ma.certified_norm(f, 6).value
    for e in (-600, 600):
        assert ma.certified_norm(f.scale(2.0**e), 6).value == base * 2.0**e


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(1, 4), st.integers(1, 2), st.floats(0.05, 3.0),
       st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_structured_norm_fuzz_matches_svd(n, m, p, scale, density, seed):
    """Random sparse series: the certified value matches the dense SVD."""
    rng = np.random.default_rng(seed)
    coeffs = {w: scale * (rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)))
              for w in GradedBasis(n, m).words if rng.uniform() < density}
    f = FreeSeries(n, m, (p, p), coeffs)
    want = np.linalg.norm(eval_at_creation(f, m), 2)
    got = ma.certified_norm(f, m).value
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("n,m,p", [(2, 6, 1), (3, 4, 2)])
def test_cf_check_above_the_dense_side_matches_the_right_translation_svd(n, m, p):
    """The flip e_w -> e_{reverse(w)} carries the right-translation sum to
    f(S^(m)) of the word-reversed series: same norm as the dense oracle."""
    rng = np.random.default_rng(40 + n + p)
    f = gaussian_series(rng, n, m, p, scale=0.2)
    assert p * len(GradedBasis(n, m)) > ma.NORM_DENSE_DIM
    want = np.linalg.norm(shift_sum(n, m, p, f.blocks, append=True), 2)
    rep = cara.cf_check(cara.CFProblem(f))
    assert abs(rep.norm - want) <= 1e-12 * want
    assert rep.within == (rep.norm <= 1.0 + rep.tol)


@pytest.mark.parametrize("n,m,p", [(2, 3, 1), (2, 6, 1), (3, 4, 2)])
def test_hinf_norm_on_both_sides_of_the_dense_threshold(n, m, p):
    """The comparison cayley_route makes: the dense SVD up to the threshold,
    the certified value above it, both against the dense norm."""
    rng = np.random.default_rng(50 + n + m + p)
    f = gaussian_series(rng, n, m, p, scale=0.2)
    nrm = np.linalg.norm(eval_at_creation(f, m), 2)
    assert 0.99 * nrm < hinf_norm(f, m).value <= 1.01 * nrm


def test_cayley_route_above_the_dense_side():
    """A feasible problem with f(S^(m)) of side 127 reduces to CF data whose
    operator is a contraction, checked by the certified norm."""
    rng = np.random.default_rng(12)
    m = 6
    coeffs = {w: 0.05 * (rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)))
              for w in GradedBasis(2, m).words if w}
    coeffs[()] = ONE
    prob = cara.CaratheodoryProblem(FreeSeries(2, m, (1, 1), coeffs))
    assert cara.check_feasibility(prob).feasible
    cf = cara.cayley_route(prob)
    nrm = np.linalg.norm(eval_at_creation(cf.data, m), 2)
    assert nrm <= 1.0
    got = hinf_norm(cf.data, m)
    assert got.rtol == ma.NORM_RTOL and got.value <= 1.0 + 1e-9
    assert abs(got.value - nrm) <= 1e-12 * nrm


@pytest.mark.parametrize("m", [3, 6])
def test_cayley_route_refuses_exactly_above_the_bound(m, monkeypatch):
    """cayley_route calls hinf_norm once, with the CF data and m, below
    (m = 3, side 15) and above (m = 6, side 127) NORM_DENSE_DIM, and
    refuses the data exactly when that value is over 1 + 1e-9."""
    rng = np.random.default_rng(13)
    coeffs = {w: 0.05 * (rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)))
              for w in GradedBasis(2, m).words if w}
    coeffs[()] = ONE
    prob = cara.CaratheodoryProblem(FreeSeries(2, m, (1, 1), coeffs))
    assert (len(GradedBasis(2, m)) > ma.NORM_DENSE_DIM) == (m == 6)
    calls = []

    def patched(value):
        def fake(f, k):
            calls.append((f, k))
            return ma.CertifiedNorm(value, None, 0)
        monkeypatch.setattr(cara, "hinf_norm", fake)

    patched(1.0 + 1e-9)
    cf = cara.cayley_route(prob)
    assert len(calls) == 1 and calls[0][0] is cf.data and calls[0][1] == m
    patched(1.0 + 2e-9)
    with pytest.raises(ScopeError, match="norm > 1"):
        cara.cayley_route(prob)
    assert len(calls) == 2 and calls[1][1] == m
    assert np.array_equal(eval_at_creation(calls[1][0], m), eval_at_creation(cf.data, m))
