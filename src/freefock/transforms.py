"""Moment functionals on the operator system spanned by the right
creation operators and their adjoints, with the Poisson, Herglotz, and
Fantappie transforms, positivity equivalence checks, Fejer inequality
checks, and radial scalings.

A functional mu is stored as its Poisson symbol, the pluriharmonic
function P mu with A_a = mu(R_~a*), B_a = mu(R_~a) and A_0 = mu(I) up to
a cutoff length, optionally with a vector-state realization on a
truncated Fock space that reproduces the moments exactly.  Words are
reversed only where a moment is named by the word of its operator: the
JSON format and the right-shift kernels.

The transforms evaluate the blocks of the symbol's series with
``fock.word_sum`` (the starred part of the Poisson transform as the
adjoint of one, the Herglotz transform as 2 F mu - mu(I) (x) I), and the
radial compressions and the divisibility kernel are built by
``fock.shift_sum`` from the blocks of the word-reversed series over
right shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ScopeError
from .fock import shift_sum, word_sum
from .linalg import adjoint, as_cmatrix, kron, min_eig_hermitian, operator_norm, solve
from .pluriharmonic import PluriharmonicFn
from .series import FreeSeries, eval_at_creation, jsr_estimate
from .words import join_indices


@dataclass
class MomentFunctional:
    """A functional stored as its Poisson symbol; n, cutoff and p are the symbol's."""

    symbol: PluriharmonicFn  # P mu
    realization: tuple | None = None  # (FockTrunc, [(weight, xi, eta), ...])

    def __post_init__(self):
        self.n, self.cutoff, self.p = self.symbol.n, self.symbol.cutoff, self.symbol.p

    @property
    def unit(self):
        """mu(I) = A_0, p x p."""
        return self.symbol.analytic.constant_term()

    def is_selfadjoint(self, tol=1e-12):
        return self.symbol.is_selfadjoint(tol)


def from_vector_states(ft, pairs, cutoff):
    """Moments mu(f) = sum_k w_k <f xi_k, eta_k> from vectors in P^(N).

    Every vector must have degree <= N - cutoff so that the truncated
    creation matrices reproduce the untruncated moments exactly; the
    functional is completely positive when the pairs are (w, xi, xi)
    with w >= 0.
    """
    if cutoff > ft.N:
        raise InputError(f"cutoff {cutoff} exceeds truncation {ft.N}")
    hi = ft.degree_slice(ft.N - cutoff)[1]
    prepared = []
    for w, xi, eta in pairs:
        xi = np.asarray(xi, dtype=complex)
        eta = np.asarray(eta, dtype=complex)
        for v in (xi, eta):
            if v.shape != (ft.dim,):
                raise InputError(f"vector length {v.shape} does not match dim {ft.dim}")
        if xi[hi:].any() or eta[hi:].any():
            raise InputError(
                f"vector degree exceeds N - cutoff = {ft.N - cutoff}; "
                "moments would be truncated"
            )
        prepared.append((complex(w), xi, eta))
    weights = np.array([p[0] for p in prepared])
    xi, eta = (np.array([p[j] for p in prepared]).reshape(len(prepared), ft.dim) for j in (1, 2))
    analytic, coanalytic = {}, {}
    for k in range(cutoff + 1):
        # R_~word = R_{ik}...R_{i1} appends word, e_v -> e_{rows[word, v]}: B_word =
        # mu(R_~word) = sum w <xi_v, eta_rows>, A_word = mu(R_~word*) = sum w <xi_rows, eta_v>
        rows = join_indices(ft.n, ft.N, k, append=True)
        cols = rows.shape[1]
        a = np.einsum("s,sv,swv->w", weights, eta[:, :cols].conj(), xi[:, rows])
        b = np.einsum("s,swv,sv->w", weights, eta[:, rows].conj(), xi[:, :cols])
        codes = np.arange(ft.n**k)
        analytic[k] = codes, a[:, None, None]
        if k:
            coanalytic[k] = codes, b[:, None, None]
    series = (FreeSeries._built(ft.n, cutoff, (1, 1), c) for c in (analytic, coanalytic))
    return MomentFunctional(PluriharmonicFn(*series), realization=(ft, prepared))


# -- transforms --------------------------------------------------------------


def poisson_transform_of(mu, X):
    """(P mu)(X) = sum mu(R_~a) (x) X_a* + mu(I) (x) I + sum mu(R_~a*) (x) X_a."""
    analytic = fantappie_transform(mu, X)
    return analytic + adjoint(word_sum(X, mu.p, mu.symbol.coanalytic.adjoint().blocks))


def fantappie_transform(mu, X):
    """(F mu)(X) = mu(I) (x) I + sum_{|a|>=1} mu(R_~a*) (x) X_a."""
    if X.n != mu.n:
        raise InputError(f"tuple has {X.n} operators, functional expects {mu.n}")
    return word_sum(X, mu.p, mu.symbol.analytic.blocks)


def herglotz_transform(mu, X):
    """(H mu)(X) = 2 (F mu)(X) - mu(I) (x) I."""
    return 2.0 * fantappie_transform(mu, X) - kron(mu.unit, np.eye(X.dim))


def herglotz_from_isometries(V, W, X, im_part, domain_projection=None, tol=1e-10):
    """Stinespring form of a Herglotz transform:
    (W* (x) I)[2 (I - sum V_i* (x) X_i)^(-1) - I](W (x) I) + i Im (x) I.

    The V_i must satisfy V_i* V_j = d_ij I to ``tol``, compressed by
    ``domain_projection`` when given (truncated creation operators are
    isometric only below the top degree)."""
    q = V.dim
    eye_q = np.eye(q, dtype=complex)
    for i, vi in enumerate(V.matrices):
        for j, vj in enumerate(V.matrices):
            dev = adjoint(vi) @ vj - (eye_q if i == j else 0.0)
            if domain_projection is not None:
                dev = domain_projection @ dev @ domain_projection
            if operator_norm(dev) > tol:
                raise ScopeError(
                    f"V_{i+1}* V_{j+1} deviates from isometry relations by "
                    f"{operator_norm(dev):.3e}"
                )
    if jsr_estimate(X, max(X.dim, 1)).nilpotent_order is None:
        raise ScopeError("evaluation point must be jointly nilpotent")
    p = X.dim
    W = as_cmatrix(W)
    im_part = as_cmatrix(im_part)
    m = sum(kron(adjoint(vi), xi) for vi, xi in zip(V.matrices, X.matrices))
    eye = np.eye(m.shape[0], dtype=complex)
    core = 2.0 * solve(eye - m, eye) - eye
    lifted = kron(W, np.eye(p, dtype=complex))
    return adjoint(lifted) @ core @ lifted + 1j * kron(im_part, np.eye(p, dtype=complex))


# -- kernels and positivity equivalences -------------------------------------


def kernel_from_series(f):
    """Left-divisibility kernel of a free series: K(a, a) = A_0 + A_0*,
    K(a, b) = A*_{reverse(b \\_l a)} when b >_l a, the unstarred mirror
    when a >_l b, zero otherwise; over all words of length <= cutoff.
    Block (b s, b) holds A_{reverse(s)}, so it is the right-shift sum
    of the word-reversed series (fock.shift_sum), a dense ndarray."""
    if not f.is_square():
        raise InputError("kernel needs square coefficients")
    a0 = f.constant_term()
    rest = f.without_constant().reversed()
    lower = {**rest.blocks, 0: (np.zeros(1, np.int64), (a0 + adjoint(a0))[None])}
    return shift_sum(f.n, f.cutoff, f.shape[0], lower, rest.adjoint().blocks, append=True)


@dataclass
class EquivalenceReport:
    radial_positive: bool  # A_r >= 0 over the r grid and truncation levels
    kernel_positive: bool  # the divisibility kernel is PSD
    creation_positive: bool  # Re f(S^(m)) >= 0 for every tested m
    min_eigs: dict
    tol: float

    @property
    def agree(self):
        return self.radial_positive == self.kernel_positive == self.creation_positive

    @property
    def all_positive(self):
        return self.radial_positive and self.kernel_positive and self.creation_positive


def positivity_equivalence_check(f, m_max, r_grid, tol=1e-8):
    """Evaluate the three finite positivity predicates for Re f >= 0 and
    report whether they agree: radial compressions A_r over an r grid,
    the divisibility kernel, and Re f at the compressed creations."""
    if not f.is_square():
        raise InputError("positivity check needs square coefficients")
    p = f.shape[0]
    a0 = f.coefficient(())
    half_diag = (a0 + adjoint(a0)) / 2.0

    # R_w appends reverse(w), so each coefficient sits at its reversed word
    rest = f.without_constant().reversed()
    radial_min = math.inf
    for r in r_grid:
        scaled = rest.radial(r, 0.5)
        lower = {**scaled.blocks, 0: (np.zeros(1, np.int64), half_diag[None])}
        upper = scaled.adjoint().blocks
        for m in range(m_max + 1):
            ar = shift_sum(f.n, m, p, lower, upper, append=True)
            radial_min = min(radial_min, min_eig_hermitian(ar))

    kernel_min = float(np.linalg.eigvalsh(kernel_from_series(f))[0])

    creation_min = math.inf
    for m in range(m_max + 1):
        e = eval_at_creation(f, m)
        creation_min = min(creation_min, min_eig_hermitian((e + adjoint(e)) / 2.0))

    eigs = {"radial": radial_min, "kernel": kernel_min, "creation": creation_min}
    return EquivalenceReport(
        radial_min >= -tol, kernel_min >= -tol, creation_min >= -tol, eigs, tol
    )


@dataclass
class FejerReport:
    passed: bool
    rows: list  # (k, lhs, bound)


def fejer_check(mu, m, tol=1e-10):
    """Cosine bounds on the moments of a positive scalar functional whose
    moments vanish from length m on:
    (sum_{|a|=k} |mu(R_a)|^2)^(1/2) <= mu(I) cos(pi / (floor((m-1)/k) + 2)).
    """
    if mu.p != 1:
        raise InputError("Fejer check applies to scalar functionals")
    if mu.cutoff < m - 1:
        raise InputError(f"functional must carry moments to length {m - 1}")
    scale = 1.0 + abs(complex(mu.unit[0, 0]))
    blocks = mu.symbol.coanalytic.blocks  # mu(R_~a) = B_a; reversal keeps the degree
    for k, (_, c) in blocks.items():
        if k >= m and np.abs(c).max() > 1e-12 * scale:
            raise InputError(f"moment at word of length {k} is nonzero; hypothesis fails")
    unit = complex(mu.unit[0, 0]).real
    rows = []
    for k in range(1, m):
        lhs = float(np.linalg.norm(blocks[k][1])) if k in blocks else 0.0
        bound = unit * math.cos(math.pi / ((m - 1) // k + 2)) + tol
        rows.append((k, lhs, bound))
    return FejerReport(all(lhs <= b for _, lhs, b in rows), rows)


# -- pluriharmonic bridge -----------------------------------------------------


def radial_functional(h, r):
    """Moments induced by the radial boundary of a pluriharmonic function:
    mu(R_~a) = r^|a| B_a, mu(R_~a*) = r^|a| A_a, mu(I) = A_0."""
    if not 0.0 <= r < 1.0:
        raise InputError(f"radius {r} outside [0, 1)")

    return MomentFunctional(PluriharmonicFn(h.analytic.radial(r), h.coanalytic.radial(r)))


def poisson_pluriharmonic(mu):
    """The pluriharmonic function P mu: A_a = mu(R_~a*), B_a = mu(R_~a),
    constant mu(I)."""
    return mu.symbol
