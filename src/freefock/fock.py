"""Truncated Fock space over n generators: compressed creation operators,
degree projections, the two coefficient-times-word kernels, reconstruction
operator, Berezin and Poisson kernels, vector-state Berezin transforms,
and isometric dilations.

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
multi-Toeplitz matrices and radial boundaries; ``word_sum`` evaluates
them at an operator tuple, building the products of the words and their
prefixes degree by degree (``word_products``), each word's parent found
by code arithmetic too.

Kernel matrices grow like dim(P^(N)) * p, which explodes for n = 3 past
N ~ 5; the ``apply_*`` functions act on tall vectors instead of forming
the dense operators: each resolvent of the reconstruction operator is one
sweep over degrees with one product per degree, exact on the truncated
space because the reconstruction operator is nilpotent there.
"""

from __future__ import annotations

import functools
import math
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
    solve,
)
from .words import MAX_GENERATORS, join_indices, validate_word, word_count


def word_operator(matrices, word):
    """Product X_alpha = X_{i1} ... X_{ik}; the empty word gives I."""
    p = matrices[0].shape[0]
    out = np.eye(p, dtype=complex)
    for i in word:
        out = out @ matrices[i - 1]
    return out


@dataclass
class OperatorTuple:
    """An n-tuple of p x p matrices, the argument of every transform."""

    matrices: tuple

    def __post_init__(self):
        mats = tuple(as_cmatrix(m) for m in self.matrices)
        if not mats:
            raise InputError("operator tuple needs at least one matrix")
        p = mats[0].shape[0]
        for m in mats:
            if m.shape != (p, p):
                raise InputError("operator tuple matrices must be square and equal-sized")
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

    def word(self, w):
        return word_operator(self.matrices, w)

    def scale(self, c):
        return OperatorTuple(tuple(c * m for m in self.matrices))


def random_nilpotent_tuple(rng, n, dim, row_norm=None):
    """Strictly upper-triangular random tuple; jointly nilpotent of order <= dim.

    When row_norm is given the block row is rescaled to that norm exactly
    (unless the draw is zero).
    """
    mats = []
    for _ in range(n):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        mats.append(np.triu(m, 1))
    t = OperatorTuple(tuple(mats))
    if row_norm is not None and t.row_norm > 0:
        t = t.scale(row_norm / t.row_norm)
    return t


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

    def _code(self, word):
        validate_word(word, self.n)
        return sum((i - 1) * self.n**j for j, i in enumerate(reversed(word)))

    def index(self, word):
        """Graded index of a word of length <= N."""
        if len(word) > self.N:
            raise InputError(f"word of length {len(word)} exceeds truncation {self.N}")
        return word_count(self.n, len(word) - 1) + self._code(word)

    def shift_indices(self, word, append=False):
        """Rows of e_{word v}, or of e_{v word} with append, for the words v
        of P^(N - |word|) in basis order: the word's row of
        words.join_indices, empty past degree N."""
        code = self._code(word)
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


def word_sum(X, p, blocks):
    """sum_w c_w (x) X_w on C^p (x) C^dim, coefficient-major, for the p x p
    coefficients of series blocks {k: (codes, stack)} over X.n letters:
    the products of word_products, then one einsum sums every node's
    coefficient, zero where it has none, against its product.  Not a BLAS
    product: for p = 1 that is a gemv which OpenBLAS runs on several
    threads, and waking them took up to 2 ms per call on 2 cores, against
    under 0.1 ms for the einsum."""
    q = X.dim
    check_size(p * q, p * q, "word sum")
    c, products = word_products(X.n, blocks, p)
    prods = products(np.array(X.matrices)[:, None])[:, 0]
    return np.einsum("wab,wij->aibj", c, prods).reshape(p * q, p * q)


def word_products(n, blocks, p):
    """The words of series blocks {k: (codes, stack)} over n letters and
    all their prefixes, the nodes, by degree and code: in a degree the word
    v i has code n code(v) + i - 1, so a node of code c has its parent at
    code c // n one degree down and last letter c % n.  The degrees up to
    the highest full block hold every word.  Returns the (nodes, p, p)
    coefficient stack, zero at a node without one, and products(xs): for
    tuples stacked as xs[i, s] = X_{i+1} of sample s, the (nodes, samples,
    q, q) products X_w, one batched matmul per degree, of every parent by
    every X_i on a full degree, else of the gathered parents and letters."""
    top = max(blocks, default=0)
    nodes, up, full = {}, np.zeros(0, np.int64), 0  # degrees 0..full hold every word
    for k in range(top, 0, -1):
        if k in blocks and len(blocks[k][0]) == n**k:
            full = k  # and the parents of a full degree fill the one below
            break
        codes = np.sort(np.concatenate([blocks[k][0], up]) if k in blocks else up)
        nodes[k] = codes[np.append(True, codes[1:] != codes[:-1])]  # not np.unique
        up = nodes[k] // n
    sizes = [n**k if k <= full else len(nodes[k]) for k in range(top + 1)]
    start = np.cumsum([0] + sizes).tolist()
    c = np.zeros((start[-1], p, p), dtype=complex)
    for k, (codes, block) in blocks.items():
        c[start[k] + (codes if k <= full else np.searchsorted(nodes[k], codes))] = block

    def products(xs):
        prods = np.empty((start[-1], *xs.shape[1:]), dtype=complex)
        prods[0] = np.eye(xs.shape[-1])
        for k in range(1, top + 1):
            lo, hi, below = start[k], start[k + 1], prods[start[k - 1]:start[k]]
            if k <= full:
                np.matmul(below[:, None], xs, out=prods[lo:hi].reshape(-1, n, *xs.shape[1:]))
            else:
                at = nodes[k] // n  # the parents' codes, then their rows in below
                at = at.astype(np.intp) if k - 1 <= full else np.searchsorted(nodes[k - 1], at)
                letters = (nodes[k] % n).astype(np.intp)
                np.matmul(below.take(at, 0), xs.take(letters, 0), out=prods[lo:hi])
        return prods

    return c, products


# -- kernels and transforms ------------------------------------------------


def _check_tuple(ft, X):
    if X.n != ft.n:
        raise InputError(f"tuple has {X.n} operators, Fock space expects {ft.n}")


def _check_strict_ball(X):
    if X.row_norm >= 1.0 - 1e-12:
        raise ScopeError(f"row norm {X.row_norm:.6f} is not inside the open unit ball")


def delta_defect(X):
    """Delta_X = (I - sum X_i X_i*)^(1/2), by Hermitian eigendecomposition."""
    p = X.dim
    g = np.eye(p, dtype=complex)
    for m in X.matrices:
        g = g - m @ adjoint(m)
    return hermitian_sqrt(g)


def reconstruction_operator(ft, X):
    """R_X = sum_i R_i (x) X_i* on P^(N) (x) C^p, Fock-major."""
    _check_tuple(ft, X)
    p = X.dim
    check_size(ft.dim * p, ft.dim * p, "reconstruction operator")
    out = np.zeros((ft.dim, p, ft.dim, p), dtype=complex)
    for i, m in enumerate(X.matrices, start=1):
        dst = ft.shift_indices((i,), append=True)
        out[dst, :, np.arange(len(dst)), :] = adjoint(m)
    return out.reshape(ft.dim * p, ft.dim * p)


def berezin_kernel(ft, X):
    """B_X = (I (x) Delta_X)(I - R_X)^(-1), dense."""
    _check_tuple(ft, X)
    _check_strict_ball(X)
    rx = reconstruction_operator(ft, X)
    inv = solve(np.eye(rx.shape[0], dtype=complex) - rx, np.eye(rx.shape[0], dtype=complex))
    return kron(np.eye(ft.dim, dtype=complex), delta_defect(X)) @ inv


def poisson_kernel(ft, X):
    """K_X: C^p -> P^(N) (x) C^p; block at word alpha is Delta_X X_alpha*.

    Direct block construction (the Neumann expansion of B_X on 1 (x) h),
    so no resolvent solve is needed.  Built degree by degree: in
    graded-lex order the words of degree k are alpha j, |alpha| = k - 1,
    with block X_j* times that of alpha, so each degree is one batched
    product.  The part of the infinite kernel beyond degree N has norm at
    most tail_bound(row_norm, N).
    """
    _check_tuple(ft, X)
    _check_strict_ball(X)
    p = X.dim
    check_entries(ft.dim * p * p, "Poisson kernel")
    xstar = np.array([adjoint(m) for m in X.matrices])
    level = np.eye(p, dtype=complex)[None]
    levels = [level]
    for _ in range(ft.N):
        level = np.matmul(xstar[None], level[:, None]).reshape(-1, p, p)
        levels.append(level)
    return np.matmul(delta_defect(X), np.concatenate(levels)).reshape(ft.dim * p, p)


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
    out = np.einsum(
        "avi,jalb,bvk->jilk", K3.conj(), U.reshape(q, d, q, d), K3, optimize=True
    )
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
    B = berezin_kernel(ft, X)
    p = X.dim
    G = adjoint(B) @ kron(F, np.eye(p, dtype=complex)) @ B
    out = np.zeros((p, p), dtype=complex)
    eye = np.eye(p, dtype=complex)
    for w, xi, eta in pairs:
        lx = kron(np.asarray(xi, dtype=complex).reshape(-1, 1), eye)
        le = kron(np.asarray(eta, dtype=complex).reshape(-1, 1), eye)
        out += w * (adjoint(le) @ G @ lx)
    return out


# -- probe application paths (no dense kernel) -----------------------------


def _resolvent(ft, X, V, backward=False):
    """(I - R_X)^(-1) V, or (I - R_X*)^(-1) V when backward, on (dim, p)
    arrays, as one sweep over degrees; exact, since R_X is nilpotent of
    order N + 1.

    In graded-lex order the words of degree k are alpha i, |alpha| = k - 1,
    at row code(alpha) n + i - 1 of the degree block.  Forward, from the
    bottom: out[alpha i] = V[alpha i] + out[alpha] conj(X_i).  Backward,
    from the top: out[alpha] = V[alpha] + sum_i out[alpha i] X_i^T.  Each
    degree is one product against the X_i side by side (stacked).
    """
    out = np.array(V, dtype=complex)
    start = [ft.degree_slice(k)[0] for k in range(ft.N + 2)]
    if backward:
        step = np.concatenate([m.T for m in X.matrices])
        for k in range(ft.N - 1, -1, -1):
            lo, mid, hi = start[k : k + 3]
            out[lo:mid] += out[mid:hi].reshape(mid - lo, -1) @ step
    else:
        step = np.concatenate([np.conj(m) for m in X.matrices], axis=1)
        for k in range(ft.N):
            lo, mid, hi = start[k : k + 3]
            out[mid:hi] += (out[lo:mid] @ step).reshape(hi - mid, -1)
    return out


def apply_pluriharmonic_poisson(ft, X, V):
    """P(R^(N), X) V = ((I-R_X)^(-1) + (I-R_X*)^(-1) - I) V on probes."""
    return _resolvent(ft, X, V) + _resolvent(ft, X, V, backward=True) - V


def apply_berezin_factor(ft, X, V):
    """B_X* B_X V through the two resolvent sweeps and the defect square."""
    g = np.eye(X.dim, dtype=complex)
    for m in X.matrices:
        g = g - m @ adjoint(m)
    return _resolvent(ft, X, _resolvent(ft, X, V) @ g.T, backward=True)


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
