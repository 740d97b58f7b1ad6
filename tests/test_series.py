import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freefock import linalg, products
from freefock import series as fs
from freefock.errors import InputError, ScopeError, SizeLimitError
from freefock.fock import FockTrunc, OperatorTuple, random_nilpotent_tuple
from freefock.linalg import adjoint, kron, operator_norm
from freefock.multianalytic import hinf_norm
from freefock.words import GradedBasis, reverse

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
        chain = scalar_series(1, 40, {(1,): 0.5})
        with pytest.raises(SizeLimitError):  # each degree is charged its fixed storage
            fs.cayley_forward(chain)
        linalg.set_max_dim(40)  # 1600 entries: 40 words and their 40 degrees fit
        assert 40 * (1 + fs.DEGREE_ENTRIES) <= 40**2
        assert len(fs.cayley_forward(chain).coeffs) == 40
    finally:
        linalg.set_max_dim(old)


def test_graded_stack_is_the_per_degree_concatenation():
    """graded_stack(m) has the bits of each degree's (n^k, *shape) stack in
    code order, zeros where a word has none, concatenated for k <= m: for
    dense and sparse series, square or not, and m below, at or above the
    cutoff.  Its d p q entries meet the size limit before it allocates, so
    a degree-60 stack over two letters raises SizeLimitError, not
    MemoryError."""
    def degree(f, k):
        out = np.zeros((f.n**k, *f.shape), dtype=complex)
        codes, c = f.blocks.get(k, ([], 0.0))
        out[codes] = c
        return out

    rng = np.random.default_rng(41)
    for n, shape in ((1, (2, 2)), (2, (1, 1)), (2, (2, 3)), (3, (3, 2))):
        dense = fs.random_series(rng, n, 3, shape)
        sparse = sparse_series(rng, n, 3, shape, [0, 2, 3], 2)
        for f in (dense, sparse, fs.FreeSeries.zero(n, 3, shape)):
            for m in range(6):
                want = np.concatenate([degree(f, k) for k in range(m + 1)])
                got = f.graded_stack(m)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
    f = fs.random_series(rng, 2, 3, (2, 3))
    old = linalg.MAX_DIM
    try:
        linalg.set_max_dim(9)  # 81 entries: the 7 words to degree 2 fit, the 15 to degree 3 not
        assert f.graded_stack(2).shape == (7, 2, 3)
        with pytest.raises(SizeLimitError, match="graded coefficients"):
            f.graded_stack(3)
    finally:
        linalg.set_max_dim(old)
    with pytest.raises(SizeLimitError, match="graded coefficients"):
        f.graded_stack(60)


def test_geometric_sums_charge_each_degree_its_fixed_storage():
    """A one-letter chain whose powers never vanish, with cutoff 10^9, meets
    the size limit of 4096 entries within 256 kB (about 40 kB measured): each
    computed degree is charged DEGREE_ENTRIES on top of its coefficients.
    Counting coefficients alone, 4096 one-word degrees peaked at 1.6 MB."""
    chain = fs.FreeSeries(1, 10**9, (1, 1), {(1,): ONE})
    old = linalg.MAX_DIM
    linalg.set_max_dim(64)
    tracemalloc.start()
    try:
        for geometric in (fs.cayley_forward, fs.cayley_inverse, fs.neumann_inverse):
            with pytest.raises(SizeLimitError):
                geometric(chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        linalg.set_max_dim(old)
    assert peak < 256 * 2**10


def test_from_degrees_refuses_words_out_of_order_or_given_twice():
    """Callers hand each length's words together and in increasing order:
    a map out of order, with a word twice or with a length split is refused
    (exit 3), not sorted."""
    for lengths, letters in (([2, 2], [2, 1, 1, 2]), ([2, 2], [1, 2, 1, 2]), ([1, 2, 1], [1, 1, 2, 2])):
        with pytest.raises(InputError):
            fs.from_degrees(2, 3, (1, 1), lengths, letters, np.ones((len(lengths), 1, 1)))


def test_package_built_series_are_not_revalidated(monkeypatch):
    rng = np.random.default_rng(3)
    f = fs.random_series(rng, 2, 5, (2, 2), scale=0.4, min_degree=1)
    g = sparse_series(rng, 2, 5, (2, 2), [0, 2], 3)
    calls, check = [], fs.from_degrees

    def counting(n, cutoff, shape, lengths, letters, c):
        calls.append(list(lengths))
        return check(n, cutoff, shape, lengths, letters, c)

    monkeypatch.setattr(fs, "from_degrees", counting)
    fs.FreeSeries(2, 5, (1, 1), {(1, 2): ONE})  # the public constructor still checks
    assert calls == [[2]]
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


def test_degree_slice_norm_is_the_gram_norm_at_any_scale():
    """||sum_{|a|=k} A_a* A_a||^(1/2) without squaring: at 2^-600 the
    Gram underflows and at 2^600 it overflows, yet the slice norm is the
    Gram norm of the unscaled data times the scale; a slice whose norm
    is above the largest float is inf, with no warning."""
    rng = np.random.default_rng(11)
    f = fs.random_series(rng, 2, 3, (2, 3), 0.4)
    for k in (1, 2, 3):
        gram = sum(adjoint(c) @ c for w, c in f.coeffs.items() if len(w) == k)
        want = math.sqrt(np.linalg.eigvalsh(gram)[-1])
        for e in (-600, 0, 600):
            got = f.scale(2.0**e).degree_slice_norm(k)
            assert abs(got - math.ldexp(want, e)) <= 1e-13 * math.ldexp(want, e)
    assert f.degree_slice_norm(4) == 0.0
    assert scalar_series(2, 1, {(1,): 1e-320}).degree_slice_norm(1) == 1e-320
    big = scalar_series(2, 1, {(1,): 1.5e308, (2,): 1.5e308j})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert big.degree_slice_norm(1) == math.inf


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


def loop_over_degrees_multiply(f, g):
    """The product by one degree_sum call per degree 0..cutoff, each over
    its splits in the order of g's degrees: the reference for multiply's
    iteration."""
    cutoff, shape = min(f.cutoff, g.cutoff), (f.shape[0], g.shape[1])
    fdeg, gdeg = list(f.blocks), list(g.blocks)
    left = products.Stack(f.blocks, fdeg, f.shape, left=True)
    right = products.Stack(g.blocks, gdeg, g.shape)
    blocks = {}
    for k in range(cutoff + 1):
        ib = [j for j, b in enumerate(gdeg) if k - b in f.blocks]
        if ib:
            ia = [fdeg.index(k - gdeg[j]) for j in ib]
            lm, rm = left.meta[:, ia], right.meta[:, ib]
            blocks[k] = products.degree_sum(f.n, k, left, right, lm, rm, shape)
    return fs.FreeSeries._built(f.n, cutoff, shape, blocks)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_multiply_equals_the_loop_over_degrees_bitwise(n):
    rng = np.random.default_rng(40 + n)
    cutoff = {1: 7, 2: 4, 3: 3}[n]
    series = [fs.random_series(rng, n, cutoff, (2, 2), scale=0.7),
              sparse_series(rng, n, cutoff, (2, 2), [1, cutoff], 2),
              sparse_series(rng, n, cutoff - 1, (2, 2), [0, 2], 2),
              fs.FreeSeries.zero(n, cutoff, (2, 2))]
    for f in series:
        for g in series:
            got, want = fs.multiply(f, g), loop_over_degrees_multiply(f, g)
            assert got.cutoff == want.cutoff and list(got.blocks) == list(want.blocks)
            for k, (codes, c) in want.blocks.items():
                assert np.array_equal(got.blocks[k][0], codes)
                assert np.array_equal(got.blocks[k][1], c)


@pytest.mark.parametrize("n", [1, 2])
def test_multiply_cost_follows_the_blocks_not_the_cutoff(n):
    """One-word series with cutoff 10^9 multiply within 1 MB: the product
    visits their one pair of blocks, not every degree up to the cutoff."""
    f = fs.FreeSeries(n, 10**9, (1, 1), {(1,): ONE})
    g = fs.FreeSeries(n, 10**9, (1, 1), {(n, 1): 0.5 * ONE})
    tracemalloc.start()
    try:
        prod = fs.multiply(f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert prod.cutoff == 10**9 and list(prod.coeffs) == [(1, n, 1)]
    assert prod.coefficient((1, n, 1))[0, 0] == 0.5


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
        # degree 1 full and half of degree 2: every degree from 2 on mixes full and partial splits
        "partly-sparse": fs.FreeSeries(2, 6, (2, 2), {
            w: 0.4 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            for w in [(1,), (2,), (1, 1), (2, 1)]}),
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


def pairwise_degree_sum(pairs, shape, size):
    """The degree sum one einsum per pair of blocks ((u_codes, U),
    (v_codes, V), n^|v|), each product added at the codes of its
    concatenations: the oracle for the batched products.degree_sum."""
    wide = size >= 2**63
    codes = [((uc.astype(object) if wide else uc)[:, None] * step + vc).ravel()
             for (uc, _), (vc, _), step in pairs]
    out_codes = np.array(sorted(set(itertools.chain.from_iterable(codes))), dtype=codes[0].dtype)
    out = np.zeros((len(out_codes), *shape), dtype=complex)
    for c, ((_, u), (_, v), _) in zip(codes, pairs):
        products_uv = np.einsum("ipq,jqr->ijpr", u, v).reshape(-1, *shape)
        np.add.at(out, np.searchsorted(out_codes, c), products_uv)
    return out_codes, out


def pairwise_geometric(f, sign):
    """x = f + sign f x degree by degree, every degree a pairwise_degree_sum."""
    unit = (np.zeros(1, np.int64), np.eye(f.shape[0], dtype=complex)[None])
    x = {}
    for k in range(1, f.cutoff + 1):
        pairs = [(f.blocks[k], unit, 1)] if k in f.blocks else []
        pairs += [((codes, sign * c), x[k - a], f.n ** (k - a))
                  for a, (codes, c) in f.blocks.items() if k - a in x]
        if pairs:
            x[k] = pairwise_degree_sum(pairs, f.shape, f.n**k)
    return fs.FreeSeries._built(f.n, f.cutoff, f.shape, x)


def chain_case():
    """A dense one-letter chain, cutoff 62 and 2 x 2 coefficients."""
    return fs.random_series(np.random.default_rng(62), 1, 62, (2, 2), scale=0.3, min_degree=1)


@pytest.mark.parametrize("name", [*geometric_cases(), "chain-cutoff-62"])
def test_degree_sums_match_the_pairwise_oracle(name):
    """The batched geometric sums against one einsum per pair of blocks."""
    f = chain_case() if name == "chain-cutoff-62" else geometric_cases()[name]
    for geometric, sign in ((fs.cayley_forward, 1.0), (fs.cayley_inverse, -1.0)):
        assert_series_close(geometric(f), pairwise_geometric(f, sign))


@pytest.mark.parametrize("name", ["n1-cutoff-62", "n2-cutoff-8", "n3-cutoff-6", "degrees-1-and-4"])
def test_cayley_transforms_solve_their_equations_word_by_word(name):
    """g = cayley_forward(f) solves g - f g = f and h = cayley_inverse(f)
    solves h + h f = f at every word up to the cutoff, each residual within
    1e-12 (1 + the largest of its terms)."""
    rng = np.random.default_rng(7)
    f = {"n1-cutoff-62": chain_case,
         "n2-cutoff-8": lambda: fs.random_series(rng, 2, 8, (2, 2), scale=0.4, min_degree=1),
         "n3-cutoff-6": lambda: fs.random_series(rng, 3, 6, (2, 2), scale=0.4, min_degree=1),
         "degrees-1-and-4": lambda: geometric_cases()["degrees-1-and-4"]}[name]()
    g, h = fs.cayley_forward(f), fs.cayley_inverse(f)
    for x, product, sign in ((g, fs.multiply(f, g), -1.0), (h, fs.multiply(h, f), 1.0)):
        for w in set(x.coeffs) | set(product.coeffs) | set(f.coeffs):
            terms = [x.coefficient(w), product.coefficient(w), f.coefficient(w)]
            worst = max(float(np.max(np.abs(t))) for t in terms)
            assert np.max(np.abs(terms[0] + sign * terms[1] - terms[2])) <= 1e-12 * (1 + worst)


def test_degree_sums_do_not_depend_on_the_chunks(monkeypatch):
    """Chunks of one word give the same coefficients, bit for bit, as
    whole degrees: dense, sparse, mixed and one-letter cases."""
    rng = np.random.default_rng(5)
    cases = [*geometric_cases().values(), chain_case(),
             fs.random_series(rng, 2, 5, (3, 3), scale=0.3, min_degree=1)]
    want = [(fs.cayley_forward(f), fs.cayley_inverse(f)) for f in cases]
    monkeypatch.setattr(products, "CHUNK_ENTRIES", 1)
    for f, pair in zip(cases, want):
        for got, ref in zip((fs.cayley_forward(f), fs.cayley_inverse(f)), pair):
            assert list(got.blocks) == list(ref.blocks)
            for k, (codes, c) in ref.blocks.items():
                assert np.array_equal(got.blocks[k][0], codes)
                assert np.array_equal(got.blocks[k][1], c)


def test_a_dense_cutoff_14_sum_runs_in_chunks_at_the_default_size_limit():
    """Degree 14 of a dense two-letter series holds 16384 words of 14
    splits, 458752 operand entries: more than one chunk, all within the
    default size limit; g - f g = f still holds."""
    assert linalg.MAX_DIM == 4096
    f = fs.random_series(np.random.default_rng(14), 2, 14, (1, 1), scale=0.3, min_degree=1)
    g = fs.cayley_forward(f)
    assert sum(len(codes) for codes, _ in g.blocks.values()) == 2**15 - 2
    assert 2**14 * 14 > products.CHUNK_ENTRIES
    residual = g - fs.multiply(f, g) - f
    scale = max(float(np.max(np.abs(c))) for _, c in g.blocks.values())
    assert all(np.max(np.abs(c)) <= 1e-12 * (1 + scale) for _, c in residual.blocks.values())


def test_a_long_word_over_nine_letters_stays_sparse():
    """One word of length 20 over 9 letters, cutoff 60: its powers are the
    only words (codes past int64 at degree 60), within 64 kB."""
    w = tuple(int(i) for i in np.random.default_rng(20).integers(1, 10, 20))
    f = fs.FreeSeries(9, 60, (1, 1), {w: 0.5 * ONE})
    for geometric, signs in ((fs.cayley_forward, (1, 1, 1)), (fs.cayley_inverse, (1, -1, 1))):
        tracemalloc.start()
        try:
            g = geometric(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10
        assert sorted(g.coeffs) == [w, w * 2, w * 3]
        for j, sign in enumerate(signs, 1):
            assert g.coefficient(w * j)[0, 0] == sign * 0.5**j


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
    assert not rep.exact and rep.tail_estimate > 0
    assert got[0, 0] == pytest.approx(sum(0.2**k for k in range(1, 7)), abs=1e-12)


def test_eval_report_estimates_the_radius_once(monkeypatch):
    """At a tuple not found nilpotent the scope test and the tail share one
    radius estimate; at a nilpotent tuple whose order passes the cutoff
    only the tail needs one, and an exact sum needs none."""
    calls = []
    radius = fs.radius_estimate
    monkeypatch.setattr(fs, "radius_estimate", lambda *a: calls.append(a) or radius(*a))
    f = scalar_series(1, 2, {(): 1.0, (1,): 0.5, (1, 1): 0.25})
    nil = np.diag([0.3] * 4, 1)
    for x, count in ((np.array([[0.1]]), 1), (nil, 1), (nil[:2, :2], 0)):
        del calls[:]
        rep = fs.eval_report(f, OperatorTuple((x,)))
        assert len(calls) == count and rep.exact == (count == 0)


def rerun_tail(f, X, rad):
    """The tail from its own _gram_norms run from k = 1, skipping the
    first cutoff terms: what eval_report computed before it read on from
    the terms of its jsr estimate."""
    q, total = 1.0 / rad, 0.0
    for k, nrm, e in itertools.islice(fs._gram_norms(X), f.cutoff, None):
        try:
            term = q**k * math.ldexp(math.sqrt(math.ldexp(nrm, e % 2)), e // 2)
        except OverflowError:
            term = fs._exp2(k * math.log2(q) + fs._log2(nrm, e) / 2)
        total += term
        if term <= 1e-17 * (1.0 + total) or k >= f.cutoff + 199:
            return total


def test_eval_tail_reads_on_from_the_jsr_terms():
    """The tail continues the jsr estimate's _gram_norms run and keeps its
    terms past the cutoff, bit for bit the tail of a fresh run: the jsr
    depth X.dim past cutoff + 1, at it, and a nilpotent order past it."""
    rng = np.random.default_rng(3)
    cases = [(OperatorTuple(tuple(0.05 * rng.standard_normal((dim, dim)) for _ in range(2))),
              fs.random_series(rng, 2, cutoff, (2, 2), scale=0.2)) for dim, cutoff in ((5, 2), (3, 8))]
    cases.append((OperatorTuple((np.diag([0.3] * 4, 1),)), scalar_series(1, 2, {(): 1.0, (1,): 0.5})))
    for X, f in cases:
        rep = fs.eval_report(f, X)
        assert not rep.exact and rep.tail_estimate > 0
        assert rep.tail_estimate == rerun_tail(f, X, fs.radius_estimate(f, f.cutoff))


def test_eval_at_creation():
    one = fs.FreeSeries.one(2, 2, 2)
    assert np.allclose(fs.eval_at_creation(one, 2), np.eye(2 * 7))

    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    f = fs.FreeSeries(1, 2, (2, 2), {(1,): a})
    got = fs.eval_at_creation(f, 1)
    assert np.allclose(got, kron(a, np.array([[0.0, 0.0], [1.0, 0.0]])))

    f = scalar_series(1, 2, {(1,): 1.0, (1, 1): 5.0})
    got = fs.eval_at_creation(f, 1)  # degree-2 term dies by nilpotency
    assert np.allclose(got, FockTrunc(1, 1).left_creation(1))


def test_eval_consistency_with_creation_tuple():
    rng = np.random.default_rng(5)
    f = fs.random_series(rng, 2, 3, (2, 2), scale=0.5)
    m = 3
    ft = FockTrunc(2, m)
    s_tuple = OperatorTuple(tuple(ft.left_creation(i) for i in (1, 2)))
    direct = fs.eval_at(f, s_tuple)
    assert np.max(np.abs(direct - fs.eval_at_creation(f, m))) <= 1e-12


def test_hinf_norm_lower():
    f = scalar_series(1, 1, {(1,): 1.0})
    for m in (1, 2, 3):
        assert hinf_norm(f, m).value == pytest.approx(1.0)
    g = scalar_series(2, 1, {(1,): 1.0, (2,): 1.0})
    assert hinf_norm(g, 2).value == pytest.approx(math.sqrt(2.0), rel=1e-12)

    rng = np.random.default_rng(6)
    for _ in range(5):
        h = fs.random_series(rng, 2, 3, (1, 1), scale=0.8)
        values = [hinf_norm(h, m).value for m in range(1, 5)]
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


def test_jsr_depth_past_the_tuple_dimension_is_charged_first():
    """Past k = X.dim a tuple is not nilpotent, so the depth left costs
    n dim^2 + DEGREE_ENTRIES entries a step, charged before it runs: eval at
    cutoff 10^15 and [[0.1]] meets the limit at once, while a nilpotent
    tuple at that cutoff is found by its dimension and summed exactly."""
    f = scalar_series(1, 10**15, {(): 1.0, (1,): 0.5})
    x = OperatorTuple((np.array([[0.1]]),))
    with pytest.raises(SizeLimitError):
        fs.eval_report(f, x)
    nil = OperatorTuple((np.array([[0.0, 0.3], [0.0, 0.0]]),))
    rep = fs.eval_report(f, nil)
    assert rep.exact and rep.jsr.nilpotent_order == 2
    assert np.array_equal(rep.value, np.array([[1.0, 0.15], [0.0, 1.0]]))
    old = linalg.MAX_DIM
    linalg.set_max_dim(8)  # 64 entries: one step of 1 + DEGREE_ENTRIES past k = 1 fits, two do not
    try:
        assert fs.jsr_estimate(x, 2).value == pytest.approx(0.1, rel=1e-12)
        with pytest.raises(SizeLimitError):
            fs.jsr_estimate(x, 3)
    finally:
        linalg.set_max_dim(old)


def test_radius_estimate():
    f = scalar_series(1, 6, {(1,) * k: 2.0**k for k in range(1, 7)})
    assert fs.radius_estimate(f, 6) == pytest.approx(0.5)

    g = fs.FreeSeries(2, 3, (1, 1), {w: ONE for w in GradedBasis(2, 3).words})
    assert fs.radius_estimate(g, 3) == pytest.approx(1.0 / math.sqrt(2.0))

    poly = scalar_series(1, 5, {(1,): 3.0})
    assert fs.radius_estimate(poly, 5) == pytest.approx(1.0 / 3.0)
    assert fs.radius_estimate(fs.FreeSeries.zero(1, 3, (1, 1)), 3) == math.inf
    # only the stored degrees are visited: a cutoff of 10^15 costs nothing more
    assert fs.radius_estimate(scalar_series(1, 10**15, {(1, 1): 4.0}), 10**15) == 0.5


def test_truncated_cayley_basics():
    ft = FockTrunc(1, 1)
    y = 0.7 * ft.left_creation(1)
    for direction in ("forward", "inverse"):
        assert np.allclose(fs.truncated_cayley(y, direction, ft), y)

    rng = np.random.default_rng(8)
    for m in (2, 3, 4):
        ft = FockTrunc(2, m)
        f = fs.random_series(rng, 2, m, (1, 1), scale=0.4, min_degree=1)
        y = fs.eval_at_creation(f, m)
        rt = fs.truncated_cayley(fs.truncated_cayley(y, "forward", ft), "inverse", ft)
        assert np.max(np.abs(rt - y)) <= 1e-12


def test_truncated_cayley_rejects_bad_input():
    ft = FockTrunc(2, 2)
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
    ft = FockTrunc(2, 2)
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
        nrm = hinf_norm(f, 6).value
        if nrm == 0:
            continue
        f = f.scale(1.0 / nrm)
        x = random_nilpotent_tuple(rng, n, 4, row_norm=float(rng.uniform(0.2, 0.9)))
        assert operator_norm(fs.eval_at(f, x)) <= x.row_norm + 1e-8


def test_reversed_series_reverses_every_word():
    rng = np.random.default_rng(3)
    for n, m in ((1, 3), (2, 4), (3, 3)):
        f = fs.random_series(rng, n, m, (2, 2))
        g = f.reversed()
        assert set(g.coeffs) == {reverse(w) for w in f.coeffs}
        assert all(np.array_equal(g.coeffs[reverse(w)], c) for w, c in f.coeffs.items())
        assert all((np.diff(codes) > 0).all() for codes, _ in g.blocks.values())
        back = g.reversed().coeffs
        assert all(np.array_equal(back[w], c) for w, c in f.coeffs.items())
