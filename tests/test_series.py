import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freefock import linalg
from freefock import series as fs
from freefock.errors import InputError, ScopeError, SizeLimitError
from freefock.fock import OperatorTuple, get_trunc, random_nilpotent_tuple
from freefock.linalg import kron, operator_norm
from freefock.words import GradedBasis

ONE = np.array([[1.0]])


def scalar_series(n, cutoff, coeffs):
    return fs.FreeSeries(n, cutoff, (1, 1), {w: np.array([[c]]) for w, c in coeffs.items()})


def test_multiply_words():
    f = scalar_series(2, 3, {(1,): 1.0})
    g = scalar_series(2, 3, {(2,): 1.0})
    assert fs.multiply(f, g).coefficient((1, 2))[0, 0] == 1.0

    one = fs.FreeSeries.one(2, 3, 1)
    h = scalar_series(2, 3, {(): 0.5, (1, 2): 2.0})
    prod = fs.multiply(h, one)
    for w in h.coeffs:
        assert np.allclose(prod.coefficient(w), h.coefficient(w))


def test_multiply_square_expansion():
    f = scalar_series(2, 2, {(1,): 1.0, (2,): 1.0})
    sq = fs.multiply(f, f)
    for w in ((1, 1), (1, 2), (2, 1), (2, 2)):
        assert sq.coefficient(w)[0, 0] == 1.0
    assert not sq.coefficient((1,)).any()


def dict_product(a, b, cutoff):
    """Oracle product of word -> coefficient dicts: every pair of words,
    summed by concatenation."""
    out = {}
    for u, x in a.items():
        for v, y in b.items():
            if len(u) + len(v) <= cutoff:
                out[u + v] = out.get(u + v, 0) + x @ y
    return out


def dict_sum(a, b):
    return {w: a.get(w, 0) + b.get(w, 0) for w in set(a) | set(b)}


def dict_geometric(a, cutoff, sign, p):
    """Oracle sum_{k>=1} sign^(k-1) a^k, one pairwise power at a time."""
    out, power = {}, {(): np.eye(p)}
    for k in range(cutoff):
        power = dict_product(power, a, cutoff)
        out = dict_sum(out, {w: sign**k * c for w, c in power.items()})
    return out


def pairwise_multiply(f, g):
    cutoff = min(f.cutoff, g.cutoff)
    out = dict_product(f.coeffs, g.coeffs, cutoff)
    return fs.FreeSeries(f.n, cutoff, (f.shape[0], g.shape[1]), out)


def power_sum(f, sign):
    out = dict_geometric(f.coeffs, f.cutoff, sign, f.shape[0])
    return fs.FreeSeries(f.n, f.cutoff, f.shape, out)


def composition_coefficient(f, w):
    """Per-word brute force for the Cayley coefficient at w: every subset
    of the |w| - 1 interior cut points gives one factorization into
    nonempty pieces, whose coefficients are multiplied from np.eye."""
    k = len(w)
    total = np.zeros(f.shape, dtype=complex)
    for mask in range(1 << (k - 1)):
        cuts = [0] + [i + 1 for i in range(k - 1) if mask >> i & 1] + [k]
        prod = np.eye(f.shape[0], dtype=complex)
        for a, b in zip(cuts, cuts[1:]):
            prod = prod @ f.coefficient(w[a:b])
        total += prod
    return total


def assert_series_close(got, want, rtol=1e-13):
    assert (got.n, got.cutoff, got.shape) == (want.n, want.cutoff, want.shape)
    for w in set(got.coeffs) | set(want.coeffs):
        c = want.coefficient(w)
        assert np.max(np.abs(got.coefficient(w) - c)) <= rtol * (1.0 + np.max(np.abs(c)))


def sparse_series(rng, n, cutoff, shape, degrees, count):
    """count random words of each listed degree, Gaussian coefficients."""
    coeffs = {}
    for k in degrees:
        for _ in range(count):
            w = tuple(int(i) for i in rng.integers(1, n + 1, size=k))
            coeffs[w] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return fs.FreeSeries(n, cutoff, shape, coeffs)


def test_products_check_size_before_allocating():
    eye = np.eye(8)
    single = fs.FreeSeries(2, 6, (8, 8), {(1, 2): eye})
    pair = fs.FreeSeries(2, 6, (8, 8), {(1, 2): eye, (2, 1): eye})
    two = scalar_series(2, 6, {(1,): 0.5, (2,): 0.25})
    old = linalg.MAX_DIM
    linalg.set_max_dim(8)  # 64 entries
    try:
        # one concatenation of total length 4 (n^4 = 16 words would not
        # fit): 64 entries fit
        assert list(fs.multiply(single, single).coeffs) == [(1, 2, 1, 2)]
        with pytest.raises(SizeLimitError):
            fs.multiply(pair, pair)  # 4 words of 64 entries
        for geometric in (fs.neumann_inverse, fs.cayley_forward, fs.cayley_inverse):
            with pytest.raises(SizeLimitError):
                geometric(two)  # 2 + 4 + ... + 64 = 126 words
        assert len(fs.cayley_forward(scalar_series(1, 40, {(1,): 0.5})).coeffs) == 40
    finally:
        linalg.set_max_dim(old)


def test_package_built_series_are_not_revalidated(monkeypatch):
    rng = np.random.default_rng(3)
    f = fs.random_series(rng, 2, 5, (2, 2), scale=0.4, min_degree=1)
    g = sparse_series(rng, 2, 5, (2, 2), [0, 2], 3)
    calls = []

    def counting(w, n):
        calls.append(w)

    monkeypatch.setattr(fs, "validate_word", counting)
    fs.FreeSeries(2, 5, (1, 1), {(1, 2): ONE})  # the public constructor still validates
    assert calls == [(1, 2)]
    calls.clear()
    back = fs.cayley_inverse(fs.cayley_forward(f))
    fs.multiply(f, g)
    fs.cayley_forward(fs.cayley_inverse(g.without_constant()))
    assert calls == []
    assert_series_close(back, f, rtol=1e-12)


def assert_storage(f, want):
    """f's blocks are well formed and its word view matches the dict want."""
    for k, (codes, c) in f.blocks.items():
        assert 0 <= k <= f.cutoff and c.shape == (len(codes), *f.shape) and len(codes)
        assert np.all(codes[1:] > codes[:-1]) and codes[0] >= 0 and codes[-1] < f.n**k
        assert c.any(axis=(1, 2)).all()  # no all-zero row
    assert list(f.blocks) == sorted(f.blocks)
    zero = np.zeros(f.shape)
    for w in set(f.coeffs) | set(want):
        assert np.allclose(f.coeffs.get(w, zero), want.get(w, zero), rtol=1e-12, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 4), st.integers(1, 2), st.integers(0))
def test_blocks_stay_well_formed(n, cutoff, cutoff_g, p, seed):
    rng = np.random.default_rng(seed)

    def draw(cut, min_degree):
        words = [w for w in GradedBasis(n, cut).words if len(w) >= min_degree]
        rng.shuffle(words)  # the constructor must not depend on the input order
        keep = words[: int(rng.integers(len(words) + 1))]
        z = 0.4 * rng.standard_normal((len(keep), 2, p, p))
        return dict(zip(keep, z[:, 0] + 1j * z[:, 1]))

    a, b = draw(cutoff, 0), draw(cutoff_g, 1)
    f, g = fs.FreeSeries(n, cutoff, (p, p), a), fs.FreeSeries(n, cutoff_g, (p, p), b)
    low = min(cutoff, cutoff_g)
    assert_storage(f, a)
    assert_storage(g, b)
    assert_storage(fs.multiply(f, g), dict_product(a, b, low))
    assert_storage(f + g, {w: c for w, c in dict_sum(a, b).items() if len(w) <= low})
    assert_storage(f.scale(-0.5), {w: -0.5 * c for w, c in a.items()})
    assert_storage(f.without_constant(), {w: c for w, c in a.items() if w})
    assert_storage(f.adjoint(), {w: c.conj().T for w, c in a.items()})
    assert not (f - f).blocks and not f.scale(0.0).blocks
    assert_storage(fs.cayley_forward(g), dict_geometric(b, cutoff_g, 1.0, p))
    assert_storage(fs.cayley_inverse(g), dict_geometric(b, cutoff_g, -1.0, p))
    one = {(): np.eye(p)}
    assert_storage(fs.neumann_inverse(g), dict_sum(one, dict_geometric(b, cutoff_g, 1.0, p)))


def test_adjoint_conjugate_transposes_each_coefficient():
    f = fs.FreeSeries(2, 2, (2, 1), {(1, 2): np.array([[0.5], [1j]])})
    g = f.adjoint()
    assert (g.n, g.cutoff, g.shape) == (2, 2, (1, 2))
    assert np.array_equal(g.coefficient((1, 2)), np.array([[0.5, -1j]]))


def test_coeffs_view_is_read_only():
    f = scalar_series(2, 3, {(1,): 0.5, (2, 1): 0.25})
    for g in (f, fs.cayley_forward(f), f.scale(2.0)):
        with pytest.raises(TypeError):
            g.coeffs[(1,)] = ONE
        with pytest.raises(TypeError):
            del g.coeffs[(1,)]
    # once built, the blocks back the view: what it shows is what the algebra uses
    g = scalar_series(2, 3, {(1,): 0.5, (2, 1): 0.25})
    blocks = g.blocks
    assert np.shares_memory(g.coeffs[(2, 1)], blocks[2][1])


def test_random_series_draws_word_by_word():
    """One batched draw reproduces the per-word real/imaginary stream."""
    for n, cutoff, shape, min_degree in ((2, 3, (2, 3), 0), (3, 2, (1, 1), 1), (1, 5, (2, 2), 2)):
        got = fs.random_series(np.random.default_rng(9), n, cutoff, shape, 0.4, min_degree)
        rng = np.random.default_rng(9)
        want = {}
        for w in GradedBasis(n, cutoff).words:
            if len(w) >= min_degree:
                want[w] = 0.4 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert list(got.coeffs) == list(want)
        assert_storage(got, want)
        for w, c in want.items():
            assert np.array_equal(got.coeffs[w], c)


def test_word_codes_past_int64():
    """n^cutoff >= 2^63: the codes fall back to Python ints."""
    f = scalar_series(2, 70, {(2, 1): 0.5})
    g = fs.cayley_forward(f)
    assert sorted(g.coeffs) == [(2, 1) * j for j in range(1, 36)]
    assert g.coefficient((2, 1) * 35)[0, 0] == 0.5**35
    inverse = fs.cayley_inverse(f)
    assert inverse.coefficient((2, 1) * 35)[0, 0] == 0.5**35
    assert inverse.coefficient((2, 1) * 34)[0, 0] == -(0.5**34)
    square = fs.multiply(g, g)
    assert list(square.coeffs)[-1] == (2, 1) * 35
    assert square.coefficient((2, 1) * 35)[0, 0] == 34 * 0.5**35
    # powers of one word: the size bound counts merged words, not the
    # 2^34 sequences of input words that reach degree 70
    h = scalar_series(2, 70, {(2, 1) * j: 0.9**j * (1 + 0.1j * j) for j in range(1, 36)})
    back = fs.cayley_inverse(h)
    assert sorted(back.coeffs) == [(2, 1) * j for j in range(1, 36)]
    assert_series_close(fs.cayley_forward(back), h, rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 9])
def test_multiply_matches_pairwise(n):
    rng = np.random.default_rng(n)
    cutoff = {1: 7, 2: 4, 3: 3, 9: 2}[n]
    dense_f = fs.random_series(rng, n, cutoff, (2, 3), scale=0.7)
    dense_g = fs.random_series(rng, n, cutoff - 1, (3, 1), scale=0.7)
    sparse_f = sparse_series(rng, n, cutoff, (2, 3), [1, cutoff], 2)
    sparse_g = sparse_series(rng, n, cutoff, (3, 1), [0, 2], 2)
    constant = fs.FreeSeries(n, cutoff, (3, 1), {(): np.ones((3, 1))})
    zero = fs.FreeSeries.zero(n, cutoff, (3, 1))
    for f in (dense_f, sparse_f):
        for g in (dense_g, sparse_g, constant, zero):
            assert_series_close(fs.multiply(f, g), pairwise_multiply(f, g))
    with pytest.raises(InputError):
        fs.multiply(dense_g, dense_g)  # inner shapes 1 and 3


def geometric_cases():
    rng = np.random.default_rng(12)
    nil = np.triu(rng.standard_normal((3, 3)), 1)  # products of three vanish
    return {
        "dense-n1": fs.random_series(rng, 1, 6, (2, 2), scale=0.6, min_degree=1),
        "dense-n2": fs.random_series(rng, 2, 4, (2, 2), scale=0.6, min_degree=1),
        "dense-n3": fs.random_series(rng, 3, 3, (1, 1), scale=0.6, min_degree=1),
        "dense-n9": fs.random_series(rng, 9, 2, (1, 1), scale=0.6, min_degree=1),
        "degree-3-only": sparse_series(rng, 2, 7, (2, 2), [3], 3),
        "degrees-1-and-4": sparse_series(rng, 3, 5, (2, 2), [1, 4], 2),
        "nilpotent": fs.FreeSeries(2, 6, (3, 3), {(1,): nil, (2,): 2.0 * nil, (1, 2): nil}),
        "empty": fs.FreeSeries.zero(2, 4, (2, 2)),
        "n1-cutoff-40": fs.random_series(rng, 1, 40, (1, 1), scale=0.3, min_degree=1),
    }


@pytest.mark.parametrize("name", list(geometric_cases()))
def test_geometric_sums_match_power_sums(name):
    f = geometric_cases()[name]
    forward, inverse = fs.cayley_forward(f), fs.cayley_inverse(f)
    assert_series_close(forward, power_sum(f, 1.0))
    assert_series_close(inverse, power_sum(f, -1.0))
    one = fs.FreeSeries.one(f.n, f.cutoff, f.shape[0])
    assert_series_close(fs.neumann_inverse(f), one + power_sum(f, 1.0))
    if name == "nilpotent":
        assert forward.max_degree() < f.cutoff  # the sum ends before the cutoff
    for w in GradedBasis(f.n, min(f.cutoff, 6)).words[1:]:
        # forward: every factorization; inverse: signed by the piece count
        want = composition_coefficient(f, w)
        assert np.max(np.abs(forward.coefficient(w) - want)) <= 1e-13 * (1 + np.max(np.abs(want)))
        want = -composition_coefficient(f.scale(-1.0), w)
        assert np.max(np.abs(inverse.coefficient(w) - want)) <= 1e-13 * (1 + np.max(np.abs(want)))


def test_geometric_sums_end_where_no_degree_is_reachable():
    """Past the top degree of f plus that of the nonzero degrees so far, no
    block pair reaches a degree: an empty or nilpotent series ends there,
    whatever its cutoff."""
    assert not fs.cayley_forward(fs.FreeSeries.zero(2, 10**12, (1, 1))).blocks
    nil = np.array([[0.0, 1.0], [0.0, 0.0]])  # nil @ nil = 0
    for geometric in (fs.cayley_forward, fs.cayley_inverse, fs.neumann_inverse):
        g = geometric(fs.FreeSeries(2, 10**12, (2, 2), {(1,): nil, (2, 2): 2.0 * nil}))
        want = [0, 1, 2] if geometric is fs.neumann_inverse else [1, 2]
        assert list(g.blocks) == want
        assert np.array_equal(g.coefficient((2, 2)), 2.0 * nil)


def test_neumann_inverse():
    zero = fs.FreeSeries.zero(1, 4, (1, 1))
    assert np.allclose(fs.neumann_inverse(zero).coefficient(()), ONE)

    f = scalar_series(1, 5, {(1,): 0.3})
    inv = fs.neumann_inverse(f)
    for k in range(6):
        assert inv.coefficient((1,) * k)[0, 0] == pytest.approx(0.3**k)

    g = scalar_series(2, 3, {(1,): 1.0, (2,): 1.0})
    inv = fs.neumann_inverse(g)
    for w in GradedBasis(2, 3).words:
        assert inv.coefficient(w)[0, 0] == pytest.approx(1.0)

    # (1 - f) * inv = 1 up to the cutoff
    one_minus = fs.FreeSeries.one(2, 3, 1) - g
    prod = fs.multiply(one_minus, inv)
    assert np.allclose(prod.coefficient(()), ONE)
    for w in GradedBasis(2, 3).words:
        if w:
            assert np.max(np.abs(prod.coefficient(w))) <= 1e-13

    with pytest.raises(InputError):
        fs.neumann_inverse(scalar_series(1, 2, {(): 1.0}))


def test_cayley_forward_examples():
    f = scalar_series(1, 4, {(1,): 0.5})
    g = fs.cayley_forward(f)
    assert g.coefficient((1, 1, 1))[0, 0] == pytest.approx(0.125)

    f = scalar_series(2, 2, {(1,): 0.5, (2,): 0.5})
    g = fs.cayley_forward(f)
    assert g.coefficient((1, 2))[0, 0] == pytest.approx(0.25)

    # degree-one data: the only surviving composition is the full split
    rng = np.random.default_rng(1)
    a1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    f = fs.FreeSeries(2, 3, (2, 2), {(1,): a1, (2,): a2})
    g = fs.cayley_forward(f)
    assert np.allclose(g.coefficient((1, 2, 1)), a1 @ a2 @ a1)


def test_cayley_inverse_examples():
    zero = fs.FreeSeries.zero(2, 3, (1, 1))
    assert not fs.cayley_inverse(zero).coeffs

    g = scalar_series(1, 5, {(1,) * k: 0.5**k for k in range(1, 6)})
    f = fs.cayley_inverse(g)
    assert f.coefficient((1,))[0, 0] == pytest.approx(0.5)
    for k in range(2, 6):
        assert np.max(np.abs(f.coefficient((1,) * k))) <= 1e-12


def test_cayley_roundtrip_random():
    rng = np.random.default_rng(2)
    for n, cutoff, p in ((1, 6, 1), (2, 4, 2), (3, 3, 1)):
        f = fs.random_series(rng, n, cutoff, (p, p), scale=0.5, min_degree=1)
        back = fs.cayley_inverse(fs.cayley_forward(f))
        for w in set(f.coeffs) | set(back.coeffs):
            assert np.max(np.abs(back.coefficient(w) - f.coefficient(w))) <= 1e-10


def test_cayley_composition_oracle():
    rng = np.random.default_rng(3)
    f = fs.random_series(rng, 2, 4, (2, 2), scale=0.6, min_degree=1)
    g = fs.cayley_forward(f)
    oracle = fs.cayley_composition_coefficient(f, 4)
    assert list(oracle) == GradedBasis(2, 4).words[1:]
    for w, c in oracle.items():
        assert np.max(np.abs(c - g.coefficient(w))) <= 1e-12


@pytest.mark.parametrize("n,deg", [(1, 6), (2, 4), (3, 3)])
@pytest.mark.parametrize("p", [1, 2])
def test_all_words_oracle_matches_per_word(n, deg, p):
    rng = np.random.default_rng(10 * n + p)
    dense = fs.random_series(rng, n, deg, (p, p), scale=0.6, min_degree=1)
    sparse = sparse_series(rng, n, deg, (p, p), [1, 2], 2)
    for f in (dense, sparse):
        for w, c in fs.cayley_composition_coefficient(f, deg).items():
            want = composition_coefficient(f, w)
            assert np.max(np.abs(c - want)) <= 1e-13 * (1 + np.max(np.abs(want)))


def test_eval_at_basics():
    rng = np.random.default_rng(4)
    f = fs.random_series(rng, 2, 3, (2, 2), scale=0.5)
    zero = OperatorTuple((np.zeros((3, 3)), np.zeros((3, 3))))
    assert np.allclose(fs.eval_at(f, zero), kron(f.coefficient(()), np.eye(3)))

    e12 = np.zeros((3, 3)); e12[0, 1] = 1.0
    e23 = np.zeros((3, 3)); e23[1, 2] = 1.0
    x = OperatorTuple((e12, e23))
    f = scalar_series(2, 2, {(1, 2): 1.0})
    got = fs.eval_at(f, x)
    e13 = np.zeros((3, 3)); e13[0, 2] = 1.0
    assert np.allclose(got, e13)

    f = scalar_series(1, 4, {(1,) * k: 1.0 for k in range(5)})
    t = 0.3
    nil = np.array([[0.0, t], [0.0, 0.0]])
    got = fs.eval_at(f, OperatorTuple((nil,)))
    assert np.allclose(got, np.eye(2) + nil)


def test_eval_at_scope():
    # geometric coefficients, radius 1/2; argument with jsr 1 must refuse
    f = scalar_series(1, 6, {(1,) * k: 2.0**k for k in range(1, 7)})
    assert fs.radius_estimate(f, 6) == pytest.approx(0.5)
    with pytest.raises(ScopeError):
        fs.eval_at(f, OperatorTuple((np.eye(2),)))
    # small scalar argument is fine and exact geometric
    got = fs.eval_at(f, OperatorTuple((np.array([[0.1]]),)))
    rep = fs.eval_report(f, OperatorTuple((np.array([[0.1]]),)))
    assert not rep.exact and rep.tail_bound > 0
    assert got[0, 0] == pytest.approx(sum(0.2**k for k in range(1, 7)), abs=1e-12)


def test_eval_at_creation():
    one = fs.FreeSeries.one(2, 2, 2)
    assert np.allclose(fs.eval_at_creation(one, 2), np.eye(2 * 7))

    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    f = fs.FreeSeries(1, 2, (2, 2), {(1,): a})
    got = fs.eval_at_creation(f, 1)
    assert np.allclose(got, kron(a, np.array([[0.0, 0.0], [1.0, 0.0]])))

    f = scalar_series(1, 2, {(1,): 1.0, (1, 1): 5.0})
    got = fs.eval_at_creation(f, 1)  # degree-2 term dies by nilpotency
    assert np.allclose(got, get_trunc(1, 1).left_creation(1))


def test_eval_consistency_with_creation_tuple():
    rng = np.random.default_rng(5)
    f = fs.random_series(rng, 2, 3, (2, 2), scale=0.5)
    m = 3
    ft = get_trunc(2, m)
    s_tuple = OperatorTuple(tuple(ft.left_creation(i) for i in (1, 2)))
    direct = fs.eval_at(f, s_tuple)
    assert np.max(np.abs(direct - fs.eval_at_creation(f, m))) <= 1e-12


def test_hinf_norm_lower():
    f = scalar_series(1, 1, {(1,): 1.0})
    for m in (1, 2, 3):
        assert fs.hinf_norm_lower(f, m) == pytest.approx(1.0)
    g = scalar_series(2, 1, {(1,): 1.0, (2,): 1.0})
    assert fs.hinf_norm_lower(g, 2) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    rng = np.random.default_rng(6)
    for _ in range(5):
        h = fs.random_series(rng, 2, 3, (1, 1), scale=0.8)
        values = [fs.hinf_norm_lower(h, m) for m in range(1, 5)]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12


def test_jsr_estimate():
    t = 0.7
    x = OperatorTuple((t * np.eye(3), np.zeros((3, 3))))
    est = fs.jsr_estimate(x, 4)
    assert est.value == pytest.approx(t, rel=1e-12)
    assert est.nilpotent_order is None

    rng = np.random.default_rng(7)
    nil = random_nilpotent_tuple(rng, 2, 4, row_norm=0.9)
    est = fs.jsr_estimate(nil, 6)
    assert est.nilpotent_order is not None and est.nilpotent_order <= 4
    assert est.value == 0.0

    # two scaled unitaries: M_k stays I, jsr estimate 1 at every depth
    u = np.diag(np.exp(1j * np.array([0.3, 1.1, 2.0])))
    v = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    x = OperatorTuple((u / math.sqrt(2), v / math.sqrt(2)))
    assert fs.jsr_estimate(x, 5).value == pytest.approx(1.0, rel=1e-10)


def test_jsr_estimate_at_depths_past_the_float_range():
    # M_k = 0.25^k underflows at k = 538 and 0.81^k reaches the denormals
    # near k = 3500; 4^k overflows at k = 512 and (1e200)^(2k) at k = 1
    half = fs.jsr_estimate(OperatorTuple((np.array([[0.5]]),)), 600)
    assert half.nilpotent_order is None and half.value == 0.5
    assert fs.jsr_estimate(OperatorTuple((np.array([[0.9]]),)), 4000).value == pytest.approx(
        0.9, rel=1e-12
    )
    assert fs.jsr_estimate(OperatorTuple((np.array([[2.0]]),)), 600).value == 2.0
    big = fs.jsr_estimate(OperatorTuple((np.array([[1e200, 0.0], [0.0, 0.0]]),)), 3)
    assert big.value == pytest.approx(1e200, rel=1e-12)
    # in the float range the power-of-two scalings are exact: the value is
    # bit for bit that of the unscaled recurrence
    rng = np.random.default_rng(8)
    x = OperatorTuple(tuple(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                            for _ in range(2)))
    m = np.eye(3, dtype=complex)
    for _ in range(6):
        m = sum(xi @ m @ xi.conj().T for xi in x.matrices)
    assert fs.jsr_estimate(x, 6).value == operator_norm(m) ** (1.0 / 12)


def test_radius_estimate():
    f = scalar_series(1, 6, {(1,) * k: 2.0**k for k in range(1, 7)})
    assert fs.radius_estimate(f, 6) == pytest.approx(0.5)

    g = fs.FreeSeries(2, 3, (1, 1), {w: ONE for w in GradedBasis(2, 3).words})
    assert fs.radius_estimate(g, 3) == pytest.approx(1.0 / math.sqrt(2.0))

    poly = scalar_series(1, 5, {(1,): 3.0})
    assert fs.radius_estimate(poly, 5) == pytest.approx(1.0 / 3.0)
    assert fs.radius_estimate(fs.FreeSeries.zero(1, 3, (1, 1)), 3) == math.inf


def test_truncated_cayley_basics():
    ft = get_trunc(1, 1)
    y = 0.7 * ft.left_creation(1)
    for direction in ("forward", "inverse"):
        assert np.allclose(fs.truncated_cayley(y, direction, ft), y)

    rng = np.random.default_rng(8)
    for m in (2, 3, 4):
        ft = get_trunc(2, m)
        f = fs.random_series(rng, 2, m, (1, 1), scale=0.4, min_degree=1)
        y = fs.eval_at_creation(f, m)
        rt = fs.truncated_cayley(fs.truncated_cayley(y, "forward", ft), "inverse", ft)
        assert np.max(np.abs(rt - y)) <= 1e-12


def test_truncated_cayley_rejects_bad_input():
    ft = get_trunc(2, 2)
    rng = np.random.default_rng(9)
    junk = rng.standard_normal((ft.dim, ft.dim))
    with pytest.raises(InputError):
        fs.truncated_cayley(junk, "forward", ft)
    with_constant = np.eye(ft.dim, dtype=complex)
    # identity commutes but has a constant term
    with pytest.raises(InputError):
        fs.truncated_cayley(with_constant, "forward", ft)
    y = 0.5 * ft.left_creation(1)
    with pytest.raises(InputError):
        fs.truncated_cayley(y, "sideways", ft)


def test_extract_coeffs():
    ft = get_trunc(2, 2)
    analytic, coanalytic = fs.extract_coeffs(ft.left_creation(1), ft, 1)
    assert set(analytic) == {(1,)} and np.allclose(analytic[(1,)], ONE)
    assert not coanalytic

    analytic, coanalytic = fs.extract_coeffs(ft.left_creation(1).T, ft, 1)
    assert set(coanalytic) == {(1,)} and np.allclose(coanalytic[(1,)], ONE)

    rng = np.random.default_rng(10)
    f = fs.random_series(rng, 2, 2, (2, 2), scale=0.5)
    analytic, _ = fs.extract_coeffs(fs.eval_at_creation(f, 2), ft, 2)
    for w in GradedBasis(2, 2).words:
        want = f.coefficient(w)
        got = analytic.get(w, np.zeros((2, 2)))
        assert np.max(np.abs(got - want)) <= 1e-13


def test_schwartz_type_bound():
    # ||f(X)|| <= ||X|| for nilpotent X once the norm certificate at a
    # deeper truncation is <= 1; a failure here flags an untight norm
    # certificate rather than an evaluation bug
    rng = np.random.default_rng(11)
    for k in range(12):
        n = 1 + k % 2
        f = fs.random_series(rng, n, 3, (1, 1), scale=0.6, min_degree=1)
        nrm = fs.hinf_norm_lower(f, 6)
        if nrm == 0:
            continue
        f = f.scale(1.0 / nrm)
        x = random_nilpotent_tuple(rng, n, 4, row_norm=float(rng.uniform(0.2, 0.9)))
        assert operator_norm(fs.eval_at(f, x)) <= x.row_norm + 1e-8
