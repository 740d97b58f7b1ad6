import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from freefock.errors import InputError
from freefock.words import (
    GradedBasis,
    decode_words,
    encode_words,
    left_quotient,
    reverse,
    right_quotient,
    word_from_string,
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
    assert decode_words(codes, n, k) == words
    w = tuple(data.draw(st.lists(st.integers(1, n), min_size=k, max_size=k)))
    assert decode_words(encode_words([w], n, k), n, k) == [w]
    # past int64 the codes are Python ints
    long = tuple(data.draw(st.lists(st.integers(1, n), min_size=70, max_size=70)))
    dtype = np.int64 if n**70 < 2**63 else object
    assert decode_words(encode_words([long], n, 70, dtype), n, 70) == [long]


def test_generator_range_errors():
    with pytest.raises(InputError):
        GradedBasis(10, 1)
    with pytest.raises(InputError):
        GradedBasis(0, 1)
    with pytest.raises(InputError):
        GradedBasis(2, -1)


def test_word_strings():
    assert word_from_string("121", 2) == (1, 2, 1)
    assert word_from_string("", 2) == ()
    assert word_to_string((1, 2, 1)) == "121"
    assert word_to_string(()) == ""
    with pytest.raises(InputError):
        word_from_string("3", 2)
    with pytest.raises(InputError):
        word_from_string("1a", 2)
