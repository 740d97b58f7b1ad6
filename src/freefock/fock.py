"""Truncated Fock space over n generators: compressed creation operators,
degree projections, the two coefficient-times-word kernels, reconstruction
operator, Berezin and Poisson kernels, vector-state Berezin transforms,
isometric dilations, and random nilpotent tuples, drawn from
``SplitMix64``, the package's one sample stream.

``FockTrunc(n, N)`` is P^(N) as a plain value: it enumerates no words
and caches nothing.  A word's index is code arithmetic (graded-lex
order, ``words``), its shifts are rows of ``words.join_indices``, and the
creation operators S_i and R_i are ``shift_sum`` of the one-letter series
g_i, built on each call.

Layout conventions, used consistently everywhere:

* Operators on ``Fock (x) H`` (reconstruction operator, kernels) are
  Fock-major: composite index = fock_index * p + h_index.
* Operators on ``E (x) Fock`` (symbol evaluations, radial boundaries)
  are coefficient-major: composite index = e_index * dim + fock_index.

Every sum of coefficients times words goes through one of two kernels,
and both read the blocks {k: (codes, stack)} of a series: ``shift_sum``
scatters them into the blocks that their shifts on P^(N) reach, placed by
code arithmetic (``words.join_indices``), for multi-analytic operators,
multi-Toeplitz matrices and radial boundaries; ``word_sum`` is the one
evaluator at operator tuples, of stacked samples and several sets of
blocks on one tree of products (``word_products``), each word's parent
found by code arithmetic too, summed one degree at a time with two
degrees held; at strictly upper triangular tuples each degree is kept as
the band where its products can be nonzero.

Kernel matrices grow like dim(P^(N)) * p, which explodes for n = 3 past
N ~ 5.  The Poisson kernel of a jointly nilpotent tuple of order k is zero
past degree k - 1, and ``poisson_kernel`` computes no block there.  The
``apply_*`` functions act on tall vectors instead: each
resolvent of the reconstruction operator is one sweep over degrees, one
product per degree, exact as it is nilpotent on P^(N).  The dense
``poisson_transform`` is the reference for ``pluriharmonic.poisson_at``,
whose closed form needs no kernel at all.  ``OperatorTuple`` owns the
letter-count and open-ball ([B(H)^n]_1) rules that every kernel applies.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ScopeError
from .linalg import (
    adjoint,
    as_cmatrix,
    check_entries,
    check_size,
    hermitian_sqrt,
    kron,
    operator_norm,
)
from .words import MAX_GENERATORS, join_indices, validate_word, word_code, word_count


def word_operator(matrices, word):
    """Product X_alpha = X_{i1} ... X_{ik}; the empty word gives I."""
    p = matrices[0].shape[0]
    out = np.eye(p, dtype=complex)
    for i in word:
        out = out @ matrices[i - 1]
    return out


@dataclass
class OperatorTuple:
    """An n-tuple of p x p matrices, the argument of every transform; it owns
    the letter-count (InputError) and open-ball (ScopeError) rules."""

    matrices: tuple

    def __post_init__(self):
        mats = tuple(as_cmatrix(m) for m in self.matrices)
        if not mats:
            raise InputError("operator tuple needs at least one matrix")
        p = mats[0].shape[0]
        for m in mats:
            if m.shape != (p, p):
                raise InputError("operator tuple matrices must be square and equal-sized")
            if not np.isfinite(m).all():
                raise InputError("operator tuple entries must be finite")
        self.matrices = mats

    @property
    def n(self):
        return len(self.matrices)

    @property
    def dim(self):
        return self.matrices[0].shape[0]

    @functools.cached_property
    def row_norm(self):
        """Norm of the block row [X_1 ... X_n]."""
        return operator_norm(np.hstack(self.matrices))

    @functools.cached_property
    def stack(self):
        """The (n, 1, dim, dim) stack of word_sum: this tuple as one sample."""
        return np.array(self.matrices)[:, None]

    def word(self, w):
        return word_operator(self.matrices, w)

    def scale(self, c):
        return OperatorTuple(tuple(c * m for m in self.matrices))

    def check_letters(self, n, what):
        """Refuse a tuple of other than n operators, the letters of what."""
        if self.n != n:
            raise InputError(f"tuple has {self.n} operators, {what} expects {n}")

    def check_open_ball(self):
        """This tuple, refused unless inside the open unit ball [B(H)^n]_1."""
        if self.row_norm >= 1.0 - 1e-12:
            raise ScopeError(f"row norm {self.row_norm:.6f} is not inside the open unit ball")
        return self


# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the i-th draw of the
# stream with key s is mix(s + (i + 1) GAMMA) mod 2^64, so any draw is
# computed from its position alone
_GAMMA = 0x9E3779B97F4A7C15
_MASK = 2**64 - 1
# values in a block of a SplitMix64 substream: the first two hold 2^10,
# each later one as many as all before it, up to 2^14 (128 KiB), so a
# few samples compute few values and many samples few blocks
_BLOCK_MIN, _BLOCK_MAX = 2**10, 2**14


def _mix64(z):
    """SplitMix64's output function, a bijection of uint64, in place on z."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def _draws(state, step, count):
    """The SplitMix64 draws of the states state + j step, j < count."""
    z = np.arange(count, dtype=np.uint64)
    z *= np.uint64(step & _MASK)
    z += np.uint64(state & _MASK)
    return _mix64(z)


def _uniforms(state, step, count):
    """53-bit uniforms in [0, 1)."""
    return (_draws(state, step, count) >> 11) * 2.0**-53


def _normals(state, step, count):
    """Standard normals by Box-Muller, two from each pair of draws: with u
    and v the 53-bit uniforms in (0, 1] of the pair, r = sqrt(-2 log u)
    times the cosine and the sine of the angle 2 pi (v - 1/2), from its
    half-angle tangent t as ((1 - t)(1 + t), 2 t) / (1 + t^2)."""
    u, v = (((_draws(state + j * step, 2 * step, count // 2) >> 11) + 1) * 2.0**-53 for j in (0, 1))
    r = np.sqrt(-2.0 * np.log(u))
    t = np.tan(np.pi * (v - 0.5))
    r /= 1.0 + t * t
    out = np.empty((count // 2, 2))
    np.multiply(r, (1.0 - t) * (1.0 + t), out=out[:, 0])
    np.multiply(r, 2.0 * t, out=out[:, 1])
    return out.reshape(-1)


class _Substream:
    """Every second draw of a SplitMix64 stream, from the state `start` on,
    mapped to values by `values` in blocks of a fixed schedule, so each
    value has the same bits however the calls split the stream."""

    def __init__(self, start, values):
        self._start, self._values = start, values
        self._made, self._block, self._pos = 0, np.empty(0), 0

    def draw(self, size):
        """The next values: a float, or an array of shape size."""
        out = np.empty(() if size is None else size)
        flat, i = out.reshape(-1), 0
        while i < flat.size:
            if self._pos == self._block.size:
                count = min(max(self._made, _BLOCK_MIN), _BLOCK_MAX)
                state = self._start + self._made * 2 * _GAMMA
                self._block, self._pos = self._values(state, 2 * _GAMMA, count), 0
                self._made += count
            take = min(flat.size - i, self._block.size - self._pos)
            flat[i:i + take] = self._block[self._pos:self._pos + take]
            i, self._pos = i + take, self._pos + take
        return float(out) if size is None else out


class SplitMix64:
    """The package's one sample stream, with numpy Generator's signatures
    for uniform, integers, standard_normal and normal, on numpy's uint64
    arithmetic alone (numpy.random is not imported).

    The seed is any non-negative int: its low 64 bits are the key, and any
    higher ones are folded in 64 at a time through the mixer, so distinct
    seeds below 2^64 give distinct streams.  Of the key's SplitMix64
    draws, the even ones feed uniform (53-bit, in [0, 1) scaled to
    [low, high)) and integers, the odd ones standard_normal (Box-Muller on
    53-bit uniforms in (0, 1]) and normal, each computed in blocks of at
    most 2^14 values: the values are the same bits in one call or in any
    split of it.  A scalar call returns an int or a float."""

    def __init__(self, seed=0):
        seed = operator.index(seed)
        if seed < 0:
            raise InputError(f"seed {seed} is negative")
        key, rest = seed & _MASK, seed >> 64
        while rest:
            key = int(_draws(key + _GAMMA, 0, 1)[0]) ^ (rest & _MASK)
            rest >>= 64
        self._uniform = _Substream(key + _GAMMA, _uniforms)
        self._normal = _Substream(key + 2 * _GAMMA, _normals)

    def uniform(self, low=0.0, high=1.0, size=None):
        """Uniform draws in [low, high)."""
        return low + (high - low) * self._uniform.draw(size)

    def integers(self, low, high=None, size=None):
        """Integers in [low, high), or [0, low): low + floor(k w / 2^53) in
        exact integer arithmetic, for w = high - low and k the 53-bit
        numerator of a uniform; w must be 1 to 2^53, so every value is hit."""
        low, high = map(operator.index, (0, low) if high is None else (low, high))
        if not 0 < high - low <= 2**53:
            raise ValueError(f"integers in [{low}, {high}): the range is empty or wider than 2^53")
        k = np.ldexp(self._uniform.draw(size), 53).astype(np.int64).astype(object)
        j = k * (high - low) // 2**53 + low
        return int(j) if size is None else j.astype(np.int64)

    def standard_normal(self, size=None):
        return self._normal.draw(size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        """Normal draws loc + scale * standard_normal(size)."""
        return loc + scale * self._normal.draw(size)


def random_nilpotent_tuple(rng, n, dim, row_norm=None):
    """Strictly upper-triangular random tuple; jointly nilpotent of order <= dim.

    When row_norm is given the block row is rescaled to that norm exactly
    (unless the draw is zero).  One sample of random_nilpotent_stack."""
    return OperatorTuple(tuple(random_nilpotent_stack(rng, n, dim, 1, row_norm)[:, 0]))


def random_nilpotent_stack(rng, n, dim, samples, row_norm=None):
    """The (n, samples, dim, dim) stack of word_sum: samples strictly
    upper-triangular random tuples, each jointly nilpotent of order <= dim.

    rng (a SplitMix64, or anything with its uniform and standard_normal)
    makes two draws: the samples' target row norms, when row_norm is a
    range (low, high), and then, for each sample and letter, the real and
    then the imaginary parts of its dim (dim - 1) / 2 strictly upper
    entries in np.triu_indices order.  Every block row [X_1 ... X_n] is
    rescaled to its target norm exactly by one batched SVD, a zero draw
    left as it is."""
    target = rng.uniform(*row_norm, samples) if np.ndim(row_norm) == 1 else row_norm
    i, j = np.triu_indices(dim, 1)
    draws = rng.standard_normal((samples, n, 2, i.size))
    mats = np.zeros((samples, n, dim, dim), complex)
    mats.real[..., i, j] = draws[:, :, 0]
    mats.imag[..., i, j] = draws[:, :, 1]
    del draws
    if row_norm is not None and mats.size:
        rows = mats.transpose(0, 2, 1, 3).reshape(samples, dim, n * dim)
        norms = np.linalg.svd(rows, compute_uv=False)[:, 0]
        scale = np.divide(target, norms, out=np.ones(samples), where=norms > 0)
        mats *= scale[:, None, None, None]
    return mats.swapaxes(0, 1)


@dataclass(frozen=True)
class FockTrunc:
    """P^(N), the polynomials of degree <= N in the full Fock space over n
    generators, as a plain value of (n, N): equal truncations compare equal
    and hash alike.  Its words sit in graded-lex order, the word of length
    k and code c at index word_count(n, k - 1) + c, and the compressed
    creation operators are dim x dim matrices built by shift_sum."""

    n: int
    N: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_GENERATORS:
            raise InputError(f"generator count {self.n} outside 1..{MAX_GENERATORS}")
        if self.N < 0:
            raise InputError(f"truncation degree {self.N} is negative")
        # Its join_indices maps hold at most d (N + 1) entries.  Not the side
        # cap: the kernel and resolvent paths act on tall (d p, p) arrays and
        # run past MAX_DIM words (n = 3, N = 8 in the gate).
        check_entries(self.dim * (self.N + 1), "truncated Fock space")

    @property
    def dim(self):
        return word_count(self.n, self.N)

    def degree_slice(self, k):
        """Index range of the words of exact length k."""
        return word_count(self.n, k - 1), word_count(self.n, k)

    def index(self, word):
        """Graded index of a word of length <= N."""
        if len(word) > self.N:
            raise InputError(f"word of length {len(word)} exceeds truncation {self.N}")
        return word_count(self.n, len(word) - 1) + word_code(word, self.n)

    def shift_indices(self, word, append=False):
        """Rows of e_{word v}, or of e_{v word} with append, for the words v
        of P^(N - |word|) in basis order: the word's row of
        words.join_indices, empty past degree N."""
        code = word_code(word, self.n)
        if len(word) > self.N:
            return np.zeros(0, int)
        return join_indices(self.n, self.N, len(word), append)[code]

    def left_creation(self, i):
        """S_i: e_alpha -> e_{g_i alpha}, truncated at degree N."""
        return self._creation(i, False)

    def right_creation(self, i):
        """R_i: e_alpha -> e_{alpha g_i}, truncated at degree N."""
        return self._creation(i, True)

    def _creation(self, i, append):
        if not 1 <= i <= self.n:
            raise InputError(f"generator {i} outside 1..{self.n}")
        g = {1: (np.array([i - 1]), np.ones((1, 1, 1), dtype=complex))}
        return shift_sum(self.n, self.N, 1, g, append=append)

    def degree_projection(self, k):
        """Orthogonal projection onto words of length <= k (0/1 diagonal)."""
        if not 0 <= k <= self.N:
            raise InputError(f"degree {k} outside 0..{self.N}")
        check_size(self.dim, self.dim, "degree projection")
        d = np.zeros(self.dim)
        d[: self.degree_slice(k)[1]] = 1.0
        return np.diag(d).astype(complex)


# -- coefficient-times-word sums --------------------------------------------


def shift_sum(n, N, p, lower, upper=None, append=False):
    """sum_w lower_w (x) M_w + sum_w upper_w (x) M_w^T on C^p (x) P^(N),
    coefficient-major, for p x p coefficients as series blocks {k: (codes,
    (len(codes), p, p) stack)}.  M_w is the left shift S_w: e_v -> e_{w v},
    or with append the right shift e_v -> e_{v w}, at the rows of
    words.join_indices; each degree is one scatter, and words longer than N
    reach nothing.  Distinct words reach disjoint blocks, and a nonempty
    word's M_w and M_w^T never meet, so the entries equal the Kronecker
    sum exactly.  M_() = I, so degree 0 belongs in lower only."""
    upper = upper or {}
    if 0 in upper:
        raise InputError("the empty word belongs in the lower coefficients")
    if N < 0:
        raise InputError(f"truncation degree {N} is negative")
    d = word_count(n, N)
    check_size(p * d, p * d, "shift sum")
    out = np.zeros((p, d, p, d), dtype=complex)
    for blocks, mirror in ((lower, False), (upper, True)):
        for k, (codes, c) in blocks.items():
            if k <= N:
                dst = join_indices(n, N, k, append)[codes]
                src = np.arange(dst.shape[1])
                if mirror:
                    out[:, src, :, dst] = c[:, None]
                else:
                    out[:, dst, :, src] = c[:, None]
    return out.reshape(p * d, p * d)


def word_sum(xs, p, sets, right=None):
    """sum_w c_w (x) X_w on C^p (x) C^q, coefficient-major, for each set of
    p x p coefficients (series blocks {k: (codes, stack)}) and each tuple
    of the (n, samples, q, q) stack xs[i, s] = X_{i+1} of sample s, with
    X_w times right[|w|] if given: (sets, samples, p q, p q) sums.  One
    word_products tree, then one einsum per degree, over that degree's
    band of products, added into the rows and columns the band covers
    (degree 0, which covers them all, assigned).  A right factor
    multiplies the degree's sum, sum_{|w|=k} c_w (x) X_w D = (sum_{|w|=k}
    c_w (x) X_w)(I (x) D), in fewer flops than each X_w.  The band is the
    stack's, so each sample has the bits it has alone when the stack's
    tuples are all strictly upper triangular or none are.  Not a BLAS
    product: that would be a gemv for p = 1, whose OpenBLAS threads took
    up to 2 ms per call to wake on 2 cores, against under 0.1 ms for the
    einsum."""
    samples, q = xs.shape[1], xs.shape[-1]
    check_size(p * q, p * q, "word sum")
    c, degrees = word_products(xs, sets, p)
    out = np.empty((len(sets), samples, p, q, p, q), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow shows as inf or nan
        for k, (lo, hi, prods) in enumerate(degrees):
            band = np.einsum("cwab,wsij->csaibj", c[:, lo:hi], prods)
            if right is not None:
                band = band @ right[k][..., q - band.shape[-1]:, :]
            rows, cols = band.shape[3], band.shape[5]
            if k:
                out[..., :rows, :, q - cols:] += band
            else:
                out[...] = band  # assigned, so that -0.0 keeps its sign
    return out.reshape(len(sets), samples, p * q, p * q)


def word_sum_entries(n, samples, q, p, sets, off):
    """What a word_sum call holds beside its (n, samples, q, q) stack, strictly
    upper triangular at off = 1: (sums, products, nodes, sizes), each set's
    samples (p q)^2 sums, the most entries two adjacent degrees of products
    hold, samples (q - off k)^2 a node of degree k, and the nodes, sizes[k]
    of degree k: every word to the highest full block, then the codes
    nodes[k] of every set's words and their prefixes."""
    top = max((k for blocks in sets for k in blocks if k < q or not off), default=0)
    nodes, up = {}, np.zeros(0, np.int64)  # a degree without nodes holds every word
    for k in range(top, 0, -1):
        here = [blocks[k][0] for blocks in sets if k in blocks]
        if any(len(codes) == n**k for codes in here):
            break  # and the parents of a full degree fill the one below
        codes = np.sort(np.concatenate([*here, up]))
        nodes[k] = codes[np.append(True, codes[1:] != codes[:-1])]  # not np.unique
        up = nodes[k] // n
    sizes = [len(nodes[k]) if k in nodes else n**k for k in range(top + 1)]
    entries = [size * samples * (q - off * k) ** 2 for k, size in enumerate(sizes)] + [0]
    return samples * (p * q) ** 2, max(map(sum, zip(entries, entries[1:]))), nodes, sizes


def word_products(xs, sets, p):
    """The products X_w at the nodes of word_sum_entries, one batched matmul
    per degree, every parent by every X_i or the gathered parents by their
    letters: the word v i has code n code(v) + i - 1, so a node of code c
    has its parent at c // n one degree down and last letter c % n.
    The band: when every X_i of the stack is strictly upper triangular
    (offset 1, else 0), X_w of length k is zero outside rows :q - k and
    columns k:, so degree k forms only X_v[:q - k, k - 1:] X_i[k - 1:, k:],
    and the tree stops at degree q - 1, past which every X_w is exactly
    zero.  At offset 0 the band is the whole q x q.
    Returns the (sets, nodes, p, p) coefficients, zero at a node without
    one, and a generator of the degrees (lo, hi, prods): prods[j] is the
    band of X_w at node lo + j, for every sample.  Each degree is a fresh
    array formed from the one before, so two adjacent degrees are held at
    a time; word_sum_entries' sums and products are checked first."""
    n, samples, q = len(xs), xs.shape[1], xs.shape[-1]
    off = int(not xs[..., np.tri(q, dtype=bool)].any())
    sums, products, nodes, sizes = word_sum_entries(n, samples, q, p, sets, off)
    check_entries(sums, "word sum")  # a set's sums
    check_entries(products, "word products")
    start = np.cumsum([0] + sizes).tolist()
    c = np.zeros((len(sets), start[-1], p, p), dtype=complex)
    for cs, blocks in zip(c, sets):
        for k, (codes, block) in blocks.items():
            if k < len(sizes):
                cs[start[k] + (np.searchsorted(nodes[k], codes) if k in nodes else codes)] = block

    def degrees():
        x = np.empty((1, samples, q, q), dtype=complex)
        x[0] = np.eye(q)
        yield start[0], start[1], x
        for k in range(1, len(sizes)):
            rows = q - off * k
            below = x[..., :rows, :]  # the parents' rows that reach the band
            letters = xs[..., off * (k - 1):, off * k:]
            with np.errstate(over="ignore", invalid="ignore"):  # overflow shows as inf or nan
                if k not in nodes:
                    x = np.matmul(below[:, None], letters).reshape(-1, samples, rows, rows)
                else:
                    up = nodes[k] // n  # the parents' codes, then their rows in below
                    up = np.searchsorted(nodes[k - 1], up) if k - 1 in nodes else up.astype(np.intp)
                    letters = letters.take((nodes[k] % n).astype(np.intp), 0)
                    x = np.matmul(below.take(up, 0), letters)
            yield start[k], start[k + 1], x

    return c, degrees()


# -- kernels and transforms ------------------------------------------------


def _defect_square(X):
    """I - sum X_i X_i*, the square of Delta_X."""
    g = np.eye(X.dim, dtype=complex)
    for m in X.matrices:
        g = g - m @ adjoint(m)
    return g


def delta_defect(X):
    """Delta_X = (I - sum X_i X_i*)^(1/2), by Hermitian eigendecomposition."""
    return hermitian_sqrt(_defect_square(X))


def reconstruction_operator(ft, X):
    """R_X = sum_i R_i (x) X_i* on P^(N) (x) C^p, Fock-major."""
    X.check_letters(ft.n, "Fock space")
    p = X.dim
    check_size(ft.dim * p, ft.dim * p, "reconstruction operator")
    out = np.zeros((ft.dim, p, ft.dim, p), dtype=complex)
    for i, m in enumerate(X.matrices, start=1):
        dst = ft.shift_indices((i,), append=True)
        out[dst, :, np.arange(len(dst)), :] = adjoint(m)
    return out.reshape(ft.dim * p, ft.dim * p)


def berezin_kernel(ft, X):
    """B_X = (I (x) Delta_X)(I - R_X)^(-1), dense, Delta_X applied blockwise."""
    X.check_letters(ft.n, "Fock space")
    X.check_open_ball()
    R = dense_resolvent(ft, X)
    return np.matmul(delta_defect(X), R.reshape(ft.dim, X.dim, -1)).reshape(R.shape)


def poisson_kernel(ft, X):
    """K_X: C^p -> P^(N) (x) C^p; block at word alpha is Delta_X X_alpha*.

    Direct block construction (the Neumann expansion of B_X on 1 (x) h),
    so no resolvent solve is needed.  Built degree by degree into one zero
    array: in graded-lex order the words of degree k are alpha j, |alpha| =
    k - 1, at code(alpha) n + j - 1, with block X_j* X_alpha*, so a degree
    is one batched product of the stacked X_j* by each block below.  A zero
    degree makes every later one zero: the kernel of a jointly nilpotent
    tuple of order k stops at degree k - 1, and Delta_X multiplies only
    the degrees before.  Not one wide GEMM per degree: OpenBLAS runs that
    on several threads, and waking them took about 16 ms per call on 2
    cores, against the batch's small products on the calling thread.  The
    part of the infinite kernel beyond degree N has norm at most
    tail_bound(row_norm, N).
    """
    X.check_letters(ft.n, "Fock space")
    X.check_open_ball()
    p, d = X.dim, ft.dim
    check_entries(d * p * p, "Poisson kernel")
    xstar = np.concatenate([adjoint(m) for m in X.matrices])
    out = np.zeros((d, p, p), dtype=complex)
    level, hi = np.eye(p, dtype=complex)[None], 1
    out[0] = level[0]
    for _ in range(ft.N):
        level = np.matmul(xstar, level).reshape(-1, p, p)
        if not level.any():
            break
        out[hi : hi + len(level)], hi = level, hi + len(level)
    out[:hi] = np.matmul(delta_defect(X), out[:hi])
    return out.reshape(d * p, p)


def poisson_transform(ft, U, X, coeff_dim=1):
    """P_X[U] = (I (x) K_X)* (U (x) I) (I (x) K_X) for a symbol U on
    C^q (x) P^(N), q = coeff_dim, coefficient-major; the result acts on
    C^q (x) C^p.  One contraction against the kernel blocks, so U (x) I
    is never formed."""
    U = as_cmatrix(U)
    q, d, p = coeff_dim, ft.dim, X.dim
    if U.shape != (q * d, q * d):
        raise InputError(f"symbol must be {q * d} x {q * d}, got {U.shape}")
    K3 = poisson_kernel(ft, X).reshape(d, p, p)
    out = np.einsum("avi,jalb,bvk->jilk", K3.conj(), U.reshape(q, d, q, d), K3, optimize=True)
    return out.reshape(q * p, q * p)


def poisson_transform_word_symbol(ft, alpha, beta, X, kernel=None):
    """P_X[S_alpha S_beta*] without forming the dim x dim symbol.

    S_alpha S_beta* maps e_{beta sigma} -> e_{alpha sigma}; the transform
    is K_X* (that shift (x) I) K_X = sum_sigma K_{alpha sigma}* K_{beta sigma},
    contracted over the kernel rows the shift uses.  Pass a precomputed
    poisson_kernel(ft, X) to amortize it over many words.
    """
    validate_word(alpha, ft.n)
    validate_word(beta, ft.n)
    K = poisson_kernel(ft, X) if kernel is None else kernel
    p = X.dim
    K3 = K.reshape(ft.dim, p, p)
    dst_b = ft.shift_indices(beta)
    dst_a = ft.shift_indices(alpha)
    m = min(len(dst_b), len(dst_a))  # sigma runs over degrees <= N - max(|alpha|,|beta|)
    rows_a = K3[dst_a[:m]].reshape(m * p, p)
    rows_b = K3[dst_b[:m]].reshape(m * p, p)
    return adjoint(rows_a) @ rows_b


def berezin_transform(ft, mu, F, X):
    """Berezin transform of F at X against a vector-state functional.

    mu must carry a realization: a FockTrunc matching ft and weighted
    vector pairs (w, xi, eta) in P^(N).  The map mu (x) id is applied to
    B_X* (F (x) I) B_X blockwise against the Fock factor.
    """
    if getattr(mu, "realization", None) is None:
        raise InputError("moment functional lacks a vector-state realization")
    rft, pairs = mu.realization
    if rft != ft:
        raise InputError("realization lives on a different truncated Fock space")
    F = as_cmatrix(F)
    if F.shape != (ft.dim, ft.dim):
        raise InputError(f"symbol must be {ft.dim} x {ft.dim}, got {F.shape}")
    B, p = berezin_kernel(ft, X), X.dim
    G = (adjoint(B) @ kron(F, np.eye(p, dtype=complex)) @ B).reshape(ft.dim, p, ft.dim, p)
    terms = (w * np.einsum("a,aibj,b->ij", np.conj(eta), G, xi) for w, xi, eta in pairs)
    return sum(terms, np.zeros((p, p), dtype=complex))


# -- probe application paths (no dense kernel) -----------------------------


def _resolvent(ft, X, V, backward=False):
    """(I - R_X)^(-1) V, or (I - R_X*)^(-1) V when backward, for a (dim, p,
    r) array V of r columns, as one sweep over degrees; exact, since R_X is
    nilpotent of order N + 1.  The words of degree k are alpha i at row
    code(alpha) n + i - 1 of the degree.  Forward: out[alpha i] = V[alpha i]
    + X_i* out[alpha], one batched product of the stacked X_i* by the blocks
    below, as in poisson_kernel; backward: out[alpha] = V[alpha] + sum_i
    X_i out[alpha i].  Not one wide GEMM per degree: waking OpenBLAS threads
    for it took about 30 ms per call at n = 3, p = 6, N = 8 on 2 cores."""
    out = np.array(V, dtype=complex)
    start = [ft.degree_slice(k)[0] for k in range(ft.N + 2)]
    row = np.hstack(X.matrices)
    if backward:
        for k in range(ft.N - 1, -1, -1):
            lo, mid, hi = start[k : k + 3]
            out[lo:mid] += np.matmul(row, out[mid:hi].reshape(mid - lo, -1, out.shape[2]))
    else:
        stacked = adjoint(row)
        for k in range(ft.N):
            lo, mid, hi = start[k : k + 3]
            out[mid:hi] += np.matmul(stacked, out[lo:mid]).reshape(hi - mid, *out.shape[1:])
    return out


def dense_resolvent(ft, X):
    """(I - R_X)^(-1) on P^(N) (x) C^p, Fock-major, dense: the forward sweep
    of every column of the identity, exact for every tuple."""
    X.check_letters(ft.n, "Fock space")
    d, p = ft.dim, X.dim
    check_size(d * p, d * p, "reconstruction operator")
    return _resolvent(ft, X, np.eye(d * p, dtype=complex).reshape(d, p, d * p)).reshape(d * p, -1)


def apply_pluriharmonic_poisson(ft, X, V):
    """P(R^(N), X) V = ((I-R_X)^(-1) + (I-R_X*)^(-1) - I) V on (dim, p) probes."""
    V = np.asarray(V)[..., None]
    return (_resolvent(ft, X, V) + _resolvent(ft, X, V, backward=True) - V)[..., 0]


def apply_berezin_factor(ft, X, V):
    """B_X* B_X V through the two resolvent sweeps and the defect square."""
    fwd = _resolvent(ft, X, np.asarray(V)[..., None])
    return _resolvent(ft, X, np.matmul(_defect_square(X), fwd), backward=True)[..., 0]


# -- dilation and tails -----------------------------------------------------


def isometric_dilation(T, N):
    """Truncated minimal isometric dilation of a row contraction.

    Returns n block lower-triangular matrices on C^p + (P^(N) (x) C^(np)):
    [[T_i, 0], [Delta_i, S_i (x) I]], with the defect embedded at the
    degree-zero slot.  The defect space is kept as all of C^(np); no rank
    reduction is attempted.
    """
    if T.row_norm > 1.0 + 1e-12:
        raise ScopeError(f"row norm {T.row_norm:.6f} exceeds 1; not a row contraction")
    n, p = T.n, T.dim
    ft = FockTrunc(n, N)
    C = np.hstack(T.matrices)
    G = np.eye(n * p, dtype=complex) - adjoint(C) @ C
    # row_norm <= 1 + 1e-12 can leave eigenvalues ~ -2e-12; clamp them
    D = hermitian_sqrt(G, clamp=1e-10)
    total = p + ft.dim * n * p
    check_size(total, total, "isometric dilation")
    out = []
    for i in range(1, n + 1):
        V = np.zeros((total, total), dtype=complex)
        V[:p, :p] = T.matrices[i - 1]
        V[p : p + n * p, :p] = D[:, (i - 1) * p : i * p]
        V[p:, p:] = kron(ft.left_creation(i), np.eye(n * p, dtype=complex))
        out.append(V)
    return OperatorTuple(tuple(out))


def tail_bound(r, N):
    """Norm of the degree > N tail of the Poisson kernel column:
    r^(N+1) / sqrt(1 - r^2)."""
    if not 0.0 <= r < 1.0:
        raise ScopeError(f"radius {r} outside [0, 1)")
    return r ** (N + 1) / math.sqrt(1.0 - r * r)
