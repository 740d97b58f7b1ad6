"""Words of the free semigroup on n generators, and graded word bases.

A word is a tuple of generator indices, each in 1..n; the empty tuple is
the semigroup identity.  Words serialize as digit strings ("121" means
g1 g2 g1, "" is the identity), which caps the generator count at 9.

Within a degree a word's code is its base-n value (letters 1..n as digits
0..n-1): codes follow GradedBasis order, and code(u v) = code(u) n^|v| + code(v).
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import InputError
from .linalg import check_entries

MAX_GENERATORS = 9


def word_to_string(w):
    return "".join(str(i) for i in w)


def validate_word(w, n):
    for i in w:
        if not 1 <= i <= n:
            raise InputError(f"letter {i} outside 1..{n} in word {word_to_string(w)!r}")


def word_code(w, n):
    """The code of the word w over n letters, validated first: its base-n
    value, letters 1..n as digits 0..n-1."""
    validate_word(w, n)
    return sum((i - 1) * n**j for j, i in enumerate(reversed(w)))


def encode_words(words, n, k):
    """Codes of words of length k over n letters (int64 while n^k < 2^63, else dtype object)."""
    letters = np.asarray(words, dtype=np.int64).reshape(len(words), k) - 1
    dtype = np.int64 if n**k < 2**63 else object
    return letters @ n ** np.arange(k - 1, -1, -1, dtype=dtype)


def decode_letters(codes, n, k):
    """The (len(codes), k) letters of the words with these codes; inverts encode_words."""
    return codes[:, None] // n ** np.arange(k - 1, -1, -1, dtype=codes.dtype) % n + 1


def decode_words(codes, n, k):
    """Words of length k with the given codes, as tuples."""
    return list(map(tuple, decode_letters(codes, n, k).tolist()))


def reverse(w):
    """Reverse the letters of a word; an involution."""
    return w[::-1]


def right_quotient(w, g):
    """Return sigma with w = sigma g and sigma nonempty, else None.

    w == g is not a divisibility (the quotient must be a nonempty word);
    callers that care about equality test it separately.
    """
    k = len(g)
    if len(w) <= k:
        return None
    if k and w[-k:] != g:
        return None
    return w[: len(w) - k]


def left_quotient(w, g):
    """Return sigma with w = g sigma and sigma nonempty, else None."""
    k = len(g)
    if len(w) <= k:
        return None
    if k and w[:k] != g:
        return None
    return w[k:]


def word_count(n, max_deg):
    """sum_{k<=max_deg} n^k, counted without enumerating; n >= 2 at degree
    64 is over any limit, so larger degrees count as 64."""
    return max_deg + 1 if n == 1 else (n ** (min(max_deg, 64) + 1) - 1) // (n - 1)


@functools.lru_cache(maxsize=128)
def join_indices(n, N, k, append=False):
    """Graded indices in P^(N) of w v, or of v w with append, for every
    word w of length k <= N (rows, in code order) and every v in P^(N - k)
    (columns, in basis order): the word of length j and code c sits at
    word_count(n, j - 1) + c, and code(w v) = code(w) n^|v| + code(v).
    A block of words takes its rows by code; shared, so read-only."""
    if not 0 <= k <= N:
        raise InputError(f"word length {k} outside 0..{N}")
    start = np.concatenate([[0], np.cumsum(n ** np.arange(N + 1))])
    length = np.repeat(np.arange(N + 1 - k), n ** np.arange(N + 1 - k))  # |v|
    v = np.arange(start[N + 1 - k]) - start[length]
    w = np.arange(n**k)[:, None]
    out = start[k + length] + (v * n**k + w if append else w * n**length + v)
    out.flags.writeable = False
    return out


class GradedBasis:
    """All words of length <= max_deg over n generators, in graded-lex order.

    Graded-lex (by length, then lexicographic) keeps each degree block
    contiguous, so degree projections are contiguous index ranges.
    """

    def __init__(self, n, max_deg):
        if not 1 <= n <= MAX_GENERATORS:
            raise InputError(f"generator count {n} outside 1..{MAX_GENERATORS}")
        if max_deg < 0:
            raise InputError(f"truncation degree {max_deg} is negative")
        check_entries(word_count(n, max_deg), "basis")
        self.n = n
        self.max_deg = max_deg
        words = []
        self.degree_start = []  # index of the first word of each degree
        for k in range(max_deg + 1):
            self.degree_start.append(len(words))
            words.extend(itertools.product(range(1, n + 1), repeat=k))
        self.words = words
        self.index = {w: i for i, w in enumerate(words)}
        self.size = len(words)

    def __len__(self):
        return self.size

    def degree_slice(self, k):
        """Index range of the words of exact length k."""
        lo = self.degree_start[k]
        hi = self.degree_start[k + 1] if k + 1 <= self.max_deg else self.size
        return lo, hi

    def words_of_degree(self, k):
        lo, hi = self.degree_slice(k)
        return self.words[lo:hi]
