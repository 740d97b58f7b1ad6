import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from freefock import jsonio
from freefock.errors import InputError
from freefock.fock import FockTrunc
from freefock.words import (
    GradedBasis,
    decode_words,
    encode_words,
    join_indices,
    left_quotient,
    reverse,
    right_quotient,
    word_code,
    word_to_string,
)

words_st = st.lists(st.integers(1, 3), max_size=6).map(tuple)


def test_reverse_examples():
    assert reverse(()) == ()
    assert reverse((1, 2)) == (2, 1)
    assert reverse((1, 1, 3)) == (3, 1, 1)


@given(words_st)
def test_reverse_involution(w):
    assert reverse(reverse(w)) == w


def test_right_quotient_examples():
    assert right_quotient((1, 2), (2,)) == (1,)
    assert right_quotient((1, 2), (1,)) is None
    assert right_quotient((2, 1, 1), (1, 1)) == (2,)
    # equal words are not a divisibility
    assert right_quotient((1,), (1,)) is None


def test_left_quotient_examples():
    assert left_quotient((1, 2), (1,)) == (2,)
    assert left_quotient((1, 2), (2,)) is None
    assert left_quotient((1,), (1,)) is None
    assert left_quotient((1, 2, 2), (1,)) == (2, 2)


@given(words_st, words_st)
def test_concat_right_quotient(u, v):
    if u:
        assert right_quotient(u + v, v) == u
    if v:
        assert left_quotient(u + v, u) == v


def test_quotient_reversal_duality_exhaustive():
    # over all word pairs with n <= 3, lengths <= 4
    words = [w for k in range(5) for w in itertools.product((1, 2, 3), repeat=k)]
    for w in words:
        for g in words:
            rq = right_quotient(w, g)
            lq = left_quotient(reverse(w), reverse(g))
            assert (rq is None) == (lq is None)
            if rq is not None:
                assert reverse(rq) == lq


def test_enumerate_sizes():
    assert GradedBasis(2, 2).size == 7
    assert GradedBasis(1, 3).size == 4
    assert GradedBasis(3, 2).size == 13


def test_graded_lex_order():
    basis = GradedBasis(2, 2)
    assert basis.words == [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
    for i, w in enumerate(basis.words):
        assert basis.index[w] == i
    assert basis.degree_slice(1) == (1, 3)
    assert basis.words_of_degree(2)[0] == (1, 1)


@given(st.integers(1, 9), st.integers(0, 4), st.data())
def test_codes_follow_graded_basis_and_decode(n, k, data):
    words = GradedBasis(n, k).words_of_degree(k)
    codes = encode_words(words, n, k)
    assert codes.tolist() == list(range(n**k))  # code order is GradedBasis order
    assert [word_code(w, n) for w in words] == codes.tolist()
    assert decode_words(codes, n, k) == words
    with pytest.raises(InputError, match="outside"):
        word_code((1,) * k + (n + 1,), n)
    w = tuple(data.draw(st.lists(st.integers(1, n), min_size=k, max_size=k)))
    assert decode_words(encode_words([w], n, k), n, k) == [w]
    # past int64 the codes are Python ints
    long = tuple(data.draw(st.lists(st.integers(1, n), min_size=70, max_size=70)))
    codes = encode_words([long], n, 70)
    assert codes.dtype == (np.int64 if n**70 < 2**63 else object)
    assert word_code(long, n) == codes[0]
    assert decode_words(codes, n, 70) == [long]


def test_generator_range_errors():
    with pytest.raises(InputError):
        GradedBasis(10, 1)
    with pytest.raises(InputError):
        GradedBasis(0, 1)
    with pytest.raises(InputError):
        GradedBasis(2, -1)


def test_word_strings():
    """Digit strings are the wire form of words: the JSON readers parse them
    per degree, word_to_string writes one."""
    one = [[[1.0, 0.0]]]

    def read(*keys):
        obj = {"n": 2, "cutoff": 3, "shape": [1, 1], "coefficients": dict.fromkeys(keys, one)}
        return sorted(jsonio.json_to_series(obj).coeffs)

    assert read("121", "") == [(), (1, 2, 1)]
    assert word_to_string((1, 2, 1)) == "121"
    assert word_to_string(()) == ""
    with pytest.raises(InputError):
        read("3")
    with pytest.raises(InputError):
        read("1a")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_join_indices_match_tuple_concatenation(n):
    """The code-arithmetic maps against tuple concatenation through the
    enumerated basis, for every word of length <= N + 1, on both sides."""
    for N in range(5):
        basis = GradedBasis(n, N)
        ft = FockTrunc(n, N)
        assert ft.dim == basis.size
        assert all(ft.degree_slice(k) == basis.degree_slice(k) for k in range(N + 1))
        for w in GradedBasis(n, N + 1).words:
            k = len(w)
            cols = basis.degree_slice(N - k)[1] if k <= N else 0
            sources = basis.words[:cols]
            for append, concat in ((False, lambda v: w + v), (True, lambda v: v + w)):
                want = [basis.index[concat(v)] for v in sources]
                if k <= N:
                    rows = join_indices(n, N, k, append)
                    assert rows.shape == (n**k, cols) and not rows.flags.writeable
                    assert rows[encode_words([w], n, k)[0]].tolist() == want
                    assert ft.index(w) == basis.index[w]
                assert ft.shift_indices(w, append).tolist() == want

