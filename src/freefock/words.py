"""Words of the free semigroup on n generators, and graded word bases.

A word is a tuple of generator indices, each in 1..n; the empty tuple is
the semigroup identity.  Words serialize as digit strings ("121" means
g1 g2 g1, "" is the identity), which caps the generator count at 9.

Within a degree a word's code is its base-n value (letters 1..n as digits
0..n-1): codes follow GradedBasis order, and code(u v) = code(u) n^|v| + code(v).
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import InputError
from .linalg import check_entries

MAX_GENERATORS = 9


def word_from_string(s, n=MAX_GENERATORS):
    """Parse a digit string into a word, validating letters against n."""
    try:
        w = tuple(int(c) for c in s)
    except ValueError:
        raise InputError(f"word string {s!r} contains a non-digit") from None
    validate_word(w, n)
    return w


def word_to_string(w):
    return "".join(str(i) for i in w)


def validate_word(w, n):
    for i in w:
        if not 1 <= i <= n:
            raise InputError(f"letter {i} outside 1..{n} in word {word_to_string(w)!r}")


def encode_words(words, n, k, dtype=np.int64):
    """Codes of words of length k over n letters (dtype object past int64)."""
    letters = np.array(words, dtype=dtype).reshape(len(words), k) - 1
    return letters @ np.array([n**j for j in range(k - 1, -1, -1)], dtype=dtype)


def decode_words(codes, n, k):
    """Words of length k with the given codes; inverts encode_words."""
    powers = np.array([n**j for j in range(k - 1, -1, -1)], dtype=codes.dtype)
    return list(map(tuple, (codes[:, None] // powers % n + 1).tolist()))


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
        # sum_{k<=max_deg} n^k words, counted first; n >= 2 at degree 64 is over any limit
        size = max_deg + 1 if n == 1 else (n ** (min(max_deg, 64) + 1) - 1) // (n - 1)
        check_entries(size, "basis")
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
