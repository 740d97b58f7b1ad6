"""Degree sums of products of free-series blocks.

Degree k of a product of series sums, for every split of its words into
a left factor of degree a and a right one of degree k - a, the products
of the factors' coefficients.  ``degree_sum`` forms a whole degree at
once from one ``Stack`` of each side's blocks: each word's factors are
found by code arithmetic (a word of code c has its left factor at
c // n^(k-a) and its right one at c % n^(k-a)), or, in splits whose
blocks do not hold every word of their degrees, on the split's grid of
words; then one take a side and one matmul of shape (words, p, K q) @
(words, K q, s) sum the K splits, in chunks of at most CHUNK_ENTRIES
operand entries.  So a degree costs O(words x splits) flops in a fixed
number of numpy steps.  ``series`` (products, Cayley and Neumann sums)
and ``caratheodory.extend`` (central completions) are its callers.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import linalg
from .linalg import check_entries

# Entries of the larger gathered operand in one chunk of a degree sum
CHUNK_ENTRIES = 2**14


class Stack:
    """Blocks of several degrees in one array, so that a degree sum gathers
    its factors with one take a side.  Block i holds rows off[i]:off[i] +
    size[i] of codes and c, and has degree deg[i], increasing with i; meta
    stacks (off, size, deg).  Row 0 comes first, a zero coefficient that
    an absent factor reads.  A left stack holds c as (rows, N, cols), so
    that a take along axis 1 lays each word's left factors side by side,
    and grows by a degree at a time (append); a right stack holds c as
    (N, rows, cols)."""

    def __init__(self, blocks, degrees, shape, left=False):
        parts = [blocks[d] for d in degrees]
        sizes = [len(codes) for codes, _ in parts]
        offsets = list(itertools.accumulate(sizes, initial=1))
        # blocks and rows held; meta, codes and c may have room for more
        self.count, self.rows = len(parts), offsets.pop()
        self.meta = np.array([offsets, sizes, list(degrees)], np.int64).reshape(3, -1)
        self.codes = np.concatenate([np.zeros(1, np.int64), *(codes for codes, _ in parts)])
        c = np.concatenate([np.zeros((1, *shape), dtype=complex), *(c for _, c in parts)])
        self.c = c.swapaxes(0, 1).copy() if left else c

    def append(self, k, codes, c):
        """Adds the block (codes, c) of degree k above every held degree of
        a left stack, doubling the room of the arrays that are full."""
        i, o, n = self.count, self.rows, len(codes)
        if i == self.meta.shape[1]:
            self.meta = _grown(self.meta, 2 * i + 16, axis=1)
        if o + n > len(self.codes) or codes.dtype != self.codes.dtype:
            room = max(2 * len(self.codes), o + n, 64)
            self.codes = _grown(self.codes.astype(np.result_type(codes, self.codes)), room)
            self.c = _grown(self.c, room, axis=1)
        self.meta[0, i], self.meta[1, i], self.meta[2, i] = o, n, k
        self.codes[o:o + n], self.c[:, o:o + n] = codes, c.swapaxes(0, 1)
        self.count, self.rows = i + 1, o + n

    def splits(self, n, k, right):
        """The splits of degree k into a block of this stack and one of
        right, in the order of right's degrees: the (3, K) meta columns
        (offset, size, degree) of their left and of their right blocks, and
        the most words of n letters they give, min(n^k, sum of size products)."""
        held, b = self.meta[2, :self.count], k - right.meta[2]
        ia = np.minimum(held.searchsorted(b), self.count - 1)
        ib = (held.take(ia) == b).nonzero()[0]
        lm, rm = self.meta.take(ia.take(ib), axis=1), right.meta.take(ib, axis=1)
        return lm, rm, min(n**k, int(lm[1] @ rm[1]))


@functools.lru_cache(maxsize=64)
def _digits(n, e):
    """The quotients and remainders of the rows 0..n^e - 1 by n^0, ...,
    n^e, as one (2, n^e, e + 1) array: the code arithmetic of a chunk of
    n^e words (shared, so read-only)."""
    out = np.array(np.divmod(np.arange(n**e)[:, None], n ** np.arange(e + 1)))
    out.flags.writeable = False
    return out


def _grown(a, room, axis=0):
    """a with room entries along axis, the ones past a's left uninitialised."""
    out = np.empty(a.shape[:axis] + (room,) + a.shape[axis + 1:], a.dtype)
    out[(slice(None),) * axis + (slice(a.shape[axis]),)] = a
    return out


def degree_sum(n, k, left, right, lm, rm, shape):
    """Degree k of sum_j L_j R_j over the splits j, the blocks L_j of left
    and R_j of right whose meta columns (offset, size, degree) are lm[:, j]
    and rm[:, j] (Stack.splits), their degrees adding up to k: the word
    u v, of code code(u) n^|v| + code(v), gains U_u @ V_v.  Returns
    (increasing codes, sums): every code when some split's blocks hold
    every word of their degrees, else the union of the splits' grids of
    words.  A word's factors in such a full split are found by code
    arithmetic (code // n^|v| and code % n^|v|), in the other splits on
    their grids, an absent factor reading the zero row; then each chunk of
    at most CHUNK_ENTRIES entries an operand is one take a side and one
    matmul of shape (words, p, K q) @ (words, K q, s), however many splits
    K the degree has.  Callers run it under np.errstate(over="ignore",
    invalid="ignore"): an overflow shows as inf or nan."""
    size = n**k
    wide = size >= 2**63  # past int64, the code arithmetic runs on Python ints
    lo, ls, ro, rs, b = lm[0], lm[1], rm[0], rm[1], rm[2]
    splits, p, q, s = len(ro), shape[0], left.c.shape[2], shape[1]
    if size == 1:  # one word, which every split holds
        full, whole = None, splits
    else:
        full = np.zeros(splits, bool) if wide else ls * rs == size
        whole = np.count_nonzero(full)  # splits that hold every word of degree k
    width = splits * q * max(p, s)  # entries a word takes in the larger operand
    cap = max(1, min(CHUNK_ENTRIES, linalg.MAX_DIM**2) // width)
    if whole:  # every code, in chunks of n^e words: each chunk's arithmetic is the first's
        # the largest n^e <= cap (n >= 2 here, as size > cap); log(3^5, 3) is 4.999...
        e = k if size <= cap else int(math.log(cap, n) + 1e-9)
        words, rows = size, n**e
        lo_full, ro_full, b_full = (lo, ro, b) if whole == splits else (lo[full], ro[full], b[full])
        if rows > 1:  # the first chunk's factor rows in the full splits
            li0, ri0 = _digits(n, e).take(b_full if e == k else np.minimum(b_full, e), axis=2)
            li0 += lo_full
            ri0 += ro_full
        else:  # one word a chunk: its factors are the blocks' first rows
            li0, ri0 = lo_full[None], ro_full[None]
    if whole < splits:  # the other splits' grids of words, sorted by code
        sparse = np.flatnonzero(~full)
        g = ls[sparse] * rs[sparse]
        j = np.repeat(sparse, g)
        i, t = np.divmod(np.arange(g.sum()) - np.repeat(np.cumsum(g) - g, g), rs[j])
        lpos, rpos = lo[j] + i, ro[j] + t
        kind = object if wide else np.int64
        step = np.array([n ** int(d) for d in b], object) if wide else n**b
        codes = left.codes[lpos].astype(kind, copy=False) * step[j]
        codes += right.codes[rpos].astype(kind, copy=False)
        order = np.argsort(codes, kind="stable")
        codes, j, lpos, rpos = codes[order], j[order], lpos[order], rpos[order]
        if whole:
            row = codes
        else:  # drop repeats; not np.unique, which imports numpy.ma
            new = np.append(True, codes[1:] != codes[:-1])
            codes, row = codes[new], np.cumsum(new) - 1
            words, rows = len(codes), cap
    check_entries(min(rows, words) * width, "degree sum operand")
    out = np.empty((words, p, s), dtype=complex)
    for start in range(0, words, rows):
        stop = min(words, start + rows)
        if whole:  # start is a multiple of n^e, so it shifts every chunk row alike
            li_full, ri_full = li0, ri0
            if start:
                unit = n**b_full
                li_full, ri_full = li0 + start // unit, ri0 + start % unit
        if whole == splits:
            li, ri = li_full, ri_full
        else:
            li, ri = np.zeros((2, stop - start, splits), np.int64)
            a, z = (0, len(row)) if stop - start == words else np.searchsorted(row, (start, stop))
            li[row[a:z] - start, j[a:z]], ri[row[a:z] - start, j[a:z]] = lpos[a:z], rpos[a:z]
            if whole:
                li[:, full], ri[:, full] = li_full, ri_full
        factors = left.c.take(li, axis=1).swapaxes(0, 1).reshape(stop - start, p, splits * q)
        np.matmul(factors, right.c.take(ri, axis=0).reshape(stop - start, splits * q, s),
                  out=out[start:stop])
    return np.arange(size) if whole else codes, out
