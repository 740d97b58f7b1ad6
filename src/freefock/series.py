"""Degree-truncated free power series in n noncommuting indeterminates.

Coefficients are complex matrices of one fixed shape.  A series stores,
for each degree k where it has a nonzero coefficient, one block: the
increasing integer codes of its words (``words.encode_words``) and the
stack of their coefficients, with no all-zero row.  The blocks are the one
store: outside input enters through one check per map, ``from_degrees``,
shared by the word-dict constructor and the JSON readers, and ``coeffs``,
a read-only word view decoded when first read, is for the oracles and the
tests only.  Square coefficients, which T_m, evaluation and the Cayley
maps need, are one rule: ``FreeSeries.square(what)`` gives p or refuses
the caller by name.  Every series carries an explicit cutoff; a binary
operation truncates to the smaller cutoff, so nothing claims more
precision than its inputs had.

Products and the geometric sums behind the Cayley transforms and the
Neumann inverse run on one degree kernel, ``products.degree_sum``, which
forms each degree with one gather a side and one batched matmul however
many splits of its words into two factors it has.  The geometric sums
follow x = f + x f (forward) or x = g - x g (inverse), so each degree is
computed once; the central completions of ``caratheodory.extend`` use
the same kernel.  Each checks the size of a degree before allocating it
(a geometric sum charges each degree its fixed storage too), and sparse
blocks stay sparse.  Series the package builds itself skip the public
constructor's validation.

Evaluation goes through the two kernels of ``fock``, both on the blocks:
``word_sum`` at an operator tuple, ``shift_sum`` at the compressed
creation operators; ``eval_scope`` also tests the two parts of a
pluriharmonic function.  The norm of f(S^(m)) is ``multianalytic``'s
(``hinf_norm``), so this module imports neither ``toeplitz`` nor
``multianalytic``.  The truncated Cayley transform of operators and
the coefficient extraction stay as the operator-side reference for the
series-level Cayley maps.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import InputError, ScopeError
from .fock import shift_sum, word_sum
from .linalg import adjoint, as_cmatrix, check_entries, operator_norm
from .products import Stack, degree_sum
from .words import (MAX_GENERATORS, GradedBasis, decode_words, encode_words, validate_word,
                    word_code, word_count)

# Fixed charge in complex entries of a geometric sum's degree (its storage,
# 490 bytes by tracemalloc), and of a jsr estimate's step
DEGREE_ENTRIES = 32


def from_degrees(n, cutoff, shape, lengths, letters, c):
    """The series of a whole coefficient map: its m word lengths, all letters
    as one flat array and the (m, *shape) stack, each length's words together
    and increasing.  The one check of outside input (n in 1..MAX_GENERATORS,
    shape two positive ints, lengths <= cutoff, letters in 1..n, finite
    coefficients), once per map; per degree present, only codes and order."""
    if not 1 <= n <= MAX_GENERATORS:
        raise InputError(f"generator count {n} outside 1..{MAX_GENERATORS}")
    shape = tuple(shape)
    if len(shape) != 2 or not all(isinstance(s, (int, np.integer)) and s is not True and s > 0
                                  for s in shape):
        raise InputError(f"shape must be two positive integers, got {list(shape)}")
    if cutoff < 0:
        raise InputError("cutoff must be >= 0")
    try:
        letters, c = np.asarray(letters, dtype=np.int64), np.asarray(c, dtype=complex)
    except (OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"coefficients are not of shape {shape}: {exc}") from None
    lengths = np.asarray(lengths, dtype=np.int64)
    m = len(lengths)
    if c.shape != (m, *shape) and (m or c.size):  # an empty map may come as []
        raise InputError(f"coefficients of shape {c.shape[1:]} != shape {shape}")
    starts = [0, *(np.flatnonzero(lengths[1:] != lengths[:-1]) + 1).tolist()] if m else []
    degrees = lengths[starts].tolist()
    if max(degrees, default=0) > cutoff:
        raise InputError(f"word of length {max(degrees)} exceeds cutoff {cutoff}")
    if letters.size and (letters.min() < 1 or letters.max() > n):
        words = np.split(letters, np.cumsum(lengths)[:-1])  # only to name the first bad word
        validate_word(next(w for w in words if ((w < 1) | (w > n)).any()).tolist(), n)
    if not np.isfinite(c).all():
        raise InputError("coefficients must be finite")
    blocks, at = {}, 0
    for k, a, b in zip(degrees, starts, [*starts[1:], m]):
        codes = encode_words(letters[at:at + (b - a) * k].reshape(b - a, k), n, k)
        if k in blocks or len(codes) > 1 and not (codes[1:] > codes[:-1]).all():
            raise InputError(f"words of length {k} are repeated, out of order or not together")
        blocks[k] = codes, c[a:b]
        at += (b - a) * k
    return FreeSeries._built(n, cutoff, shape, blocks)


class FreeSeries:
    """Series stored per degree: ``blocks`` {k: (codes, stacked)} holds, for
    each degree k with a nonzero coefficient, the increasing codes of its
    words and the (len(codes), *shape) stack of their coefficients, none
    all-zero; ``coeffs`` is a read-only word -> coefficient view of them,
    decoded when first read."""

    def __init__(self, n, cutoff, shape, coeffs=None):
        """The series of a word -> coefficient map, in one piece through from_degrees."""
        coeffs = coeffs or {}
        words = sorted(sorted(coeffs), key=len)
        letters = list(itertools.chain.from_iterable(words))
        c = list(map(coeffs.__getitem__, words))
        vars(self).update(vars(from_degrees(n, cutoff, shape, list(map(len, words)), letters, c)))

    @classmethod
    def _built(cls, n, cutoff, shape, blocks):
        """Series from blocks the package computed itself, so already valid:
        skips from_degrees' checks and only drops rows that are exactly zero."""
        f = cls.__new__(cls)
        f.n, f.cutoff, f.shape, f.blocks = n, cutoff, tuple(shape), {}
        for k, (codes, c) in sorted(blocks.items()):
            keep = c.any(axis=(1, 2))
            if len(keep) and keep.all():
                f.blocks[k] = codes, c
            elif keep.any():
                f.blocks[k] = codes[keep], c[keep]
        return f

    @staticmethod
    def zero(n, cutoff, shape):
        return FreeSeries(n, cutoff, shape, {})

    @staticmethod
    def one(n, cutoff, p):
        return FreeSeries(n, cutoff, (p, p), {(): np.eye(p, dtype=complex)})

    @functools.cached_property
    def coeffs(self):
        """Read-only word -> coefficient view of the blocks, for oracles and tests."""
        words = {}
        for k, (codes, c) in self.blocks.items():
            words.update(zip(decode_words(codes, self.n, k), c))
        return MappingProxyType(words)

    def coefficient(self, w):
        """The coefficient of the word w (a new array), found in its degree
        block by code."""
        code = word_code(w, self.n)
        codes, c = self.blocks.get(len(w), ((), None))
        j = np.searchsorted(codes, code)
        found = j < len(codes) and codes[j] == code
        return c[j].copy() if found else np.zeros(self.shape, dtype=complex)

    def graded_stack(self, m):
        """The (word_count(n, m), *shape) stack of the coefficients of the
        words of length <= m in graded order, zero where a word has none."""
        check_entries(word_count(self.n, m) * self.shape[0] * self.shape[1], "graded coefficients")
        out = np.zeros((word_count(self.n, m), *self.shape), dtype=complex)
        for k, (codes, c) in self.blocks.items():
            if k <= m:
                out[word_count(self.n, k - 1) + codes] = c
        return out

    def square(self, what):
        """p for p x p coefficients; what, the caller, is refused otherwise."""
        if self.shape[0] != self.shape[1]:
            raise InputError(f"{what} needs square coefficients, got {self.shape}")
        return self.shape[0]

    def constant_term(self):
        return self.coefficient(())

    def without_constant(self):
        blocks = {k: b for k, b in self.blocks.items() if k}
        return FreeSeries._built(self.n, self.cutoff, self.shape, blocks)

    def add(self, other):
        _match(self, other)
        if self.shape != other.shape:
            raise InputError("shape mismatch in series addition")
        cutoff = min(self.cutoff, other.cutoff)
        blocks = {}
        for k in set(self.blocks) | set(other.blocks):
            if k <= cutoff:
                parts = [b for b in (self.blocks.get(k), other.blocks.get(k)) if b is not None]
                blocks[k] = _accumulate(*zip(*parts), self.shape, self.n**k)
        return FreeSeries._built(self.n, cutoff, self.shape, blocks)

    def scale(self, c):
        blocks = {k: (codes, c * v) for k, (codes, v) in self.blocks.items()}
        return FreeSeries._built(self.n, self.cutoff, self.shape, blocks)

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1.0))

    def reversed(self):
        """The series of the A_{~a}, ~a the word a reversed: one digit
        reversal of each block's codes, then the block put in code order."""
        blocks = {}
        for k, (codes, c) in self.blocks.items():
            powers = self.n ** np.arange(k, dtype=codes.dtype)
            order = np.argsort(rev := (codes[:, None] // powers % self.n) @ powers[::-1])
            blocks[k] = rev[order], c[order]
        return FreeSeries._built(self.n, self.cutoff, self.shape, blocks)

    def radial(self, r):
        """The series of the r^|a| A_a: degree k times r^k."""
        blocks = {k: (codes, r**k * c) for k, (codes, c) in self.blocks.items()}
        return FreeSeries._built(self.n, self.cutoff, self.shape, blocks)

    def adjoint(self):
        """The series of the A_a*: each block conjugate-transposed."""
        blocks = {k: (codes, c.conj().swapaxes(1, 2)) for k, (codes, c) in self.blocks.items()}
        return FreeSeries._built(self.n, self.cutoff, self.shape[::-1], blocks)

    def max_degree(self):
        return max(self.blocks, default=0)

    def degree_slice_norm(self, k):
        """|| sum_{|a|=k} A_a* A_a ||^(1/2), the largest singular value of
        the stacked degree-k coefficients (LAPACK scales, so nothing is
        squared)."""
        block = self.blocks.get(k)
        return 0.0 if block is None else operator_norm(block[1].reshape(-1, self.shape[1]))


def _match(f, g):
    if f.n != g.n:
        raise InputError(f"series over {f.n} and {g.n} generators cannot be combined")


def multiply(f, g):
    """Series product; coefficient of a word sums over all its two-part
    factorizations, including empty factors: one degree_sum per degree of
    the product, over the pairs of f's and g's degrees that add up to it
    (the size check covers every degree before any is computed)."""
    _match(f, g)
    if f.shape[1] != g.shape[0]:
        raise InputError(f"inner shapes {f.shape} x {g.shape} do not match")
    cutoff = min(f.cutoff, g.cutoff)
    shape = (f.shape[0], g.shape[1])
    left = Stack(f.blocks, list(f.blocks), f.shape, left=True)
    right = Stack(g.blocks, list(g.blocks), g.shape)
    degrees = sorted({a + b for a in f.blocks for b in g.blocks if a + b <= cutoff})
    splits = {k: left.splits(f.n, k, right) for k in degrees}
    check_entries(sum(w for _, _, w in splits.values()) * shape[0] * shape[1], "series product")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow shows as inf or nan
        blocks = {k: degree_sum(f.n, k, left, right, lm, rm, shape)
                  for k, (lm, rm, _) in splits.items()}
    return FreeSeries._built(f.n, cutoff, shape, blocks)


def _accumulate(codes, blocks, shape, size):
    """(increasing codes, sums) of coefficient blocks of one degree with
    size words, each added at its distinct increasing codes.  A block that
    covers the degree makes the result every code; else one sort merges
    the codes."""
    dense = any(len(c) == size for c in codes)
    out_codes = np.arange(size) if dense else np.sort(np.concatenate(codes))
    if not dense:  # drop repeats; not np.unique, which imports numpy.ma
        out_codes = out_codes[np.append(True, out_codes[1:] != out_codes[:-1])]
    out = np.zeros((len(out_codes), *shape), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow shows as inf or nan
        for c, block in zip(codes, blocks):
            out[slice(None) if len(c) == len(out_codes) else np.searchsorted(out_codes, c)] += block
    return out_codes, out


def _require_zero_constant(f, what):
    f.square(what)
    if 0 in f.blocks:
        raise InputError(f"{what} needs zero constant term")


def _geometric(f, sign):
    """x = f + sign x f, i.e. f + f^2 + ... (sign +1) or f - f^2 + ...
    (sign -1), truncated at the cutoff: degree by degree,
    x_k = sum_a y_{k-a} (sign f_a) over the degrees a of f, with y_0 =
    sign I and y_j = x_j, one degree_sum of the growing stack of y and a
    stack of sign f; the size check before each x_k adds its Stack.splits
    words of p^2 entries and DEGREE_ENTRIES of fixed storage."""
    n, p = f.n, f.shape[0]
    right = Stack(f.blocks, list(f.blocks), f.shape)
    right.c *= sign
    reach = max(f.blocks, default=0)
    y = Stack({0: (np.zeros(1, np.int64), np.eye(p, dtype=complex)[None])}, [0], f.shape, left=True)
    y.c *= sign
    x, top, entries = {}, 0, 0  # top: the highest degree of y
    with np.errstate(over="ignore", invalid="ignore"):  # overflow shows as inf or nan
        for k in range(1, f.cutoff + 1):
            if k > reach + top:
                break  # no pair of degrees reaches degree k or beyond
            lm, rm, words = y.splits(n, k, right)
            if rm.shape[1]:
                entries += words * p * p + DEGREE_ENTRIES
                check_entries(entries, "geometric series sum")
                codes, c = degree_sum(n, k, y, right, lm, rm, f.shape)
                if np.count_nonzero(c):  # an all-zero degree reaches nothing further
                    x[k], top = (codes, c), k
                    y.append(k, codes, c)
    return FreeSeries._built(n, f.cutoff, f.shape, x)


def neumann_inverse(f):
    """(1 - f)^(-1) = 1 + f + f^2 + ..., truncated at the cutoff."""
    _require_zero_constant(f, "Neumann inverse")
    return FreeSeries.one(f.n, f.cutoff, f.shape[0]).add(_geometric(f, 1.0))


def cayley_forward(f):
    """(1 - f)^(-1) f = f + f^2 + ...; zero constant term in, zero out."""
    _require_zero_constant(f, "Cayley transform")
    return _geometric(f, 1.0)


def cayley_inverse(g):
    """g (1 + g)^(-1) = g - g^2 + g^3 - ...; inverts cayley_forward."""
    _require_zero_constant(g, "inverse Cayley transform")
    return _geometric(g, -1.0)


def cayley_composition_coefficient(f, deg):
    """Brute-force oracle for the Cayley coefficients of f at each nonempty
    word w of length <= deg: the sum over all factorizations of w into
    nonempty pieces of the products of their coefficients.  P(w) stacks
    those products, P(()) = [I] and P(w) = concat_j P(w[:j]) @ f_{w[j:]}
    (j < |w|); only the final sum adds, so nothing is shared with degree_sum."""
    zero = np.zeros(f.shape, dtype=complex)
    prods = {(): np.eye(f.shape[0], dtype=complex)[None]}
    for w in GradedBasis(f.n, deg).words[1:]:
        pieces = [prods[w[:j]] @ f.coeffs.get(w[j:], zero) for j in range(len(w))]
        prods[w] = np.concatenate(pieces)
    return {w: p.sum(0) for w, p in prods.items() if w}


# -- joint spectral radius and evaluation -----------------------------------


@dataclass
class JsrEstimate:
    kmax: int
    value: float
    nilpotent_order: int | None = None


def _gram_norms(X):
    """Yields (k, nrm, e) with ||M_k|| = nrm 2^e, M_0 = I, M_k = sum_i X_i M_{k-1} X_i*.
    X is divided by a power of two >= its row norm and each M_k by the power of two
    of its norm: exact scalings, so a norm that is a normal float is the unscaled one."""
    r = X.row_norm
    t = min(max(math.frexp(r)[1], -1022), 1023) if math.isfinite(r) else 1023
    ys = [x * 2.0**-t for x in X.matrices]
    m, e = np.eye(X.dim, dtype=complex), 0
    for k in itertools.count(1):
        m = sum(y @ m @ adjoint(y) for y in ys)
        nrm = operator_norm(m)
        yield k, nrm, e + 2 * t * k
        s = max(math.frexp(nrm)[1], -1022)
        m, e = m * 2.0**-s, e + s


def _log2(nrm, e):
    return math.log2(nrm) + e if nrm else -math.inf


def _exp2(x):
    return math.inf if x >= 1024 else 2.0**x


def jsr_estimate(X, kmax, norms=None):
    """Finite-depth joint spectral radius: ||M_kmax||^(1/(2 kmax)) with
    M_k = sum_i X_i M_{k-1} X_i*.  Reports the first k with M_k = 0 (to a
    scale-relative threshold, compared in log2), in which case the value is 0.
    One is found by k = X.dim; past it the depth left meets the size limit
    first, n dim^2 entries of products and DEGREE_ENTRIES a step.
    norms, when given, is the fresh _gram_norms(X) to read; the estimate
    stops reading it after term kmax or the nilpotent one."""
    if kmax < 1:
        raise InputError("jsr depth must be >= 1")
    r = X.row_norm  # r = 0 makes M_1 = 0; an overflowed r is at least 2^1024
    log_r = math.log2(r) if 0 < r < math.inf else 1024.0
    for k, nrm, e in _gram_norms(X) if norms is None else norms:
        log_norm = _log2(nrm, e)
        if log_norm <= math.log2(1e-13) + 2 * k * log_r:
            return JsrEstimate(kmax=k, value=0.0, nilpotent_order=k)
        if k == kmax:
            normal = -1022 < log_norm < 1024
            value = math.ldexp(nrm, e) ** (1.0 / (2 * k)) if normal else _exp2(log_norm / (2 * k))
            return JsrEstimate(kmax=kmax, value=value)
        if k == X.dim:
            check_entries((kmax - k) * (X.n * X.dim**2 + DEGREE_ENTRIES), "jsr estimate")


def radius_estimate(f, kmax):
    """Finite-depth estimate of the radius of convergence:
    1 / max_{1<=k<=kmax} ||sum_{|a|=k} A_a* A_a||^(1/(2k)).
    Only the stored slices enter (and are visited), so it is not a bound on
    the radius of an infinite series.  Infinite when every tested degree slice vanishes."""
    f.square("radius estimate")
    if not 1 <= kmax <= f.cutoff:
        raise InputError(f"depth {kmax} outside 1..cutoff={f.cutoff}")
    worst = max((f.degree_slice_norm(k) ** (1 / k) for k in f.blocks if 0 < k <= kmax), default=0.0)
    return math.inf if worst == 0.0 else 1.0 / worst


@dataclass
class EvalReport:
    value: np.ndarray
    exact: bool
    tail_estimate: float
    jsr: JsrEstimate


def eval_report(f, X):
    """Evaluate f at an operator tuple, with scope control.

    Jointly nilpotent arguments are always in scope; the sum is exact
    when the nilpotency order is <= cutoff + 1.  Otherwise the jsr
    estimate must clear the radius estimate with a 0.9 margin, and the
    reported tail_estimate estimates the degrees beyond the cutoff by
    extrapolating the growth of the stored coefficients; it bounds the
    true tail only when the unstored slices grow no faster.
    """
    est, radii, past = eval_scope([f], X)
    out = word_sum(X.stack, f.shape[0], [f.blocks])[0, 0]
    exact = est.nilpotent_order is not None and est.nilpotent_order <= f.cutoff + 1
    tail = 0.0 if exact else _eval_tail(past, radii[0] if radii else _radius(f), f.cutoff)
    return EvalReport(out, exact, tail, est)


def eval_scope(parts, X):
    """eval_report's scope test for series of one n, cutoff and square shape:
    one jsr estimate, then, unless X is nilpotent, each part's radius test
    in order.  Returns the estimate, the radius estimates it made and the
    (k, nrm, e) terms of _gram_norms(X) from k = cutoff + 1 on: those of the
    estimate's run, then the rest of that run (wrong if the run found X
    nilpotent at a degree <= cutoff, where eval_report needs no tail)."""
    f = parts[0]
    f.square("evaluation")
    X.check_letters(f.n, "series")
    norms = _gram_norms(X)
    kept = []  # the run's terms past the cutoff: at most X.dim of them
    est = jsr_estimate(X, max(X.dim, f.cutoff + 1), _keeping(norms, f.cutoff, kept))
    radii = []
    if est.nilpotent_order is None:
        for g in parts:
            radii.append(_radius(g))
            if not est.value < 0.9 * radii[-1]:
                raise ScopeError(
                    f"jsr estimate {est.value:.4f} not inside 0.9 x radius estimate "
                    f"{radii[-1]:.4f}; functional calculus out of scope"
                )
    return est, radii, itertools.chain(kept, norms)


def _keeping(norms, after, kept):
    """The terms of norms, appending those past degree `after` to kept."""
    for term in norms:
        if term[0] > after:
            kept.append(term)
        yield term


def _radius(f):
    return radius_estimate(f, f.cutoff) if f.cutoff >= 1 else math.inf


def _eval_tail(past, rad, cutoff):
    """sum_{k > cutoff} q^k ||M_k||^(1/2) with q = 1 / rad the slice-norm
    growth rate, over past, the (k, nrm, e) terms of _gram_norms from k = cutoff + 1."""
    q = 0.0 if math.isinf(rad) else 1.0 / rad
    if q == 0.0:
        return 0.0
    total = 0.0
    for k, nrm, e in past:
        try:  # sqrt(nrm 2^e) = sqrt(nrm 2^(e mod 2)) 2^(e // 2) exactly
            term = q**k * math.ldexp(math.sqrt(math.ldexp(nrm, e % 2)), e // 2)
        except OverflowError:
            term = _exp2(k * math.log2(q) + _log2(nrm, e) / 2)
        total += term
        if term <= 1e-17 * (1.0 + total) or k >= cutoff + 199:
            return total


def eval_at(f, X):
    """sum_a A_a (x) X_a (coefficient-major); see eval_report for scope."""
    return eval_report(f, X).value


def eval_at_creation(f, m):
    """f(S^(m)) = sum_{|a|<=m} A_a (x) S_a^(m) on C^p (x) P^(m)."""
    return shift_sum(f.n, m, f.square("evaluation"), f.blocks)


# -- truncated Cayley transform on multi-analytic operators -----------------


def check_multi_analytic(Y, ft, tol=1e-10):
    """Y on C^p (x) P^(m) must commute with every I (x) R_i^(m).

    That commutant is exactly the operators sum_a A_a (x) S_a^(m), the
    truncated analogue of multi-analytic operators in the left world.
    """
    Y = as_cmatrix(Y)
    if Y.shape[0] != Y.shape[1] or Y.shape[0] % ft.dim:
        raise InputError(f"operator of size {Y.shape} does not fit C^p (x) P^({ft.N})")
    p = Y.shape[0] // ft.dim
    scale = 1.0 + np.linalg.norm(Y)
    y4 = Y.reshape(p, ft.dim, p, ft.dim)
    for i in range(1, ft.n + 1):
        # R_i maps e_j to e_dst[j]: Y R_i moves columns dst to j, R_i Y rows j to dst
        dst = ft.shift_indices((i,), append=True)
        comm = np.zeros_like(y4)
        comm[..., : len(dst)] = y4[..., dst]
        comm[:, dst] -= y4[:, : len(dst)]
        if np.linalg.norm(comm) > tol * scale:
            raise InputError(f"operator does not commute with I (x) R_{i}; not multi-analytic")
    return p


def truncated_cayley(Y, direction, ft):
    """Cayley transform of a multi-analytic operator with zero constant
    term on C^p (x) P^(m): forward Y(I-Y)^(-1) = Y + ... + Y^m, inverse
    Y(I+Y)^(-1) = Y - Y^2 + ... +- Y^m.  Finite sums by nilpotency."""
    if direction not in ("forward", "inverse"):
        raise InputError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    p = check_multi_analytic(Y, ft)
    constant = Y.reshape(p, ft.dim, p, ft.dim)[:, 0, :, 0]
    if operator_norm(constant) > 1e-10 * (1.0 + np.linalg.norm(Y)):
        raise InputError("operator has a nonzero constant term")
    out = np.zeros_like(Y)
    power = np.eye(Y.shape[0], dtype=complex)
    sign = 1.0
    for _ in range(ft.N):
        power = power @ Y
        if not power.any():
            break
        out += sign * power
        if direction == "inverse":
            sign = -sign
    return out


def extract_coeffs(A, ft, coeff_dim):
    """Fourier coefficients of an operator on C^p (x) P^(N).

    Returns (analytic, coanalytic): analytic[a] pairs A against the
    column of e_{g0} and the row of e_a, coanalytic[a] the transposed
    pairing; exact zeros are dropped.
    """
    A = as_cmatrix(A)
    p = coeff_dim
    if A.shape != (p * ft.dim, p * ft.dim):
        raise InputError(f"operator shape {A.shape} does not match C^{p} (x) P^({ft.N})")
    a4 = A.reshape(p, ft.dim, p, ft.dim)
    analytic = {}
    coanalytic = {}
    for w, k in GradedBasis(ft.n, ft.N).index.items():
        c = a4[:, k, :, 0]
        if c.any():
            analytic[w] = c.copy()
        if k > 0:
            b = a4[:, 0, :, k]
            if b.any():
                coanalytic[w] = b.copy()
    return analytic, coanalytic


def random_series(rng, n, cutoff, shape, scale=1.0, min_degree=0):
    """Dense random series with standard complex Gaussian entries, drawn
    word by word in graded-lex order, real part before imaginary."""
    degrees = range(min_degree, cutoff + 1)
    z = rng.standard_normal((sum(n**k for k in degrees), 2, *shape))
    c = np.split(scale * (z[:, 0] + 1j * z[:, 1]), np.cumsum([n**k for k in degrees])[:-1])
    blocks = {k: (np.arange(n**k), b) for k, b in zip(degrees, c)}
    return FreeSeries._built(n, cutoff, shape, blocks)
