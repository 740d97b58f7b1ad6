"""Free pluriharmonic functions: an analytic and a co-analytic free
series, evaluation, radial boundary operators and their Poisson transform
in closed form, and the positivity, Harnack, coefficient-bound,
mean-value, and multi-Toeplitz checks.

Every value at a tuple is one ``fock.word_sum`` of both parts on one
tree: ``value_at`` unscoped, ``eval_at`` after ``series.eval_scope``, and
``poisson_at`` with a right factor per degree.  ``check_positive`` tests
h(S^(m)), the multi-Toeplitz T_m of the analytic part, for every m <=
m_max by one ``toeplitz.tm_positivity`` call at m_max (the lower levels
are principal submatrices), which picks the dense or the factored path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ScopeError
from .fock import FockTrunc, dense_resolvent, poisson_transform, shift_sum, word_sum
from .linalg import adjoint, as_cmatrix, check_entries, operator_norm
from .series import FreeSeries, eval_scope, jsr_estimate
from .toeplitz import tm_positivity


@dataclass
class PluriharmonicFn:
    """h(X) = sum B_a (x) X_a* + A_0 (x) I + sum A_a (x) X_a: analytic is
    the series of the A_a (with A_0), coanalytic that of the B_a, which has
    no constant term.  Both share n, cutoff and a square shape."""

    analytic: FreeSeries
    coanalytic: FreeSeries

    def __post_init__(self):
        a, b = self.analytic, self.coanalytic
        if (a.n, a.cutoff, a.shape) != (b.n, b.cutoff, b.shape):
            raise InputError(
                f"analytic (n, cutoff, shape) {(a.n, a.cutoff, a.shape)} differs from "
                f"co-analytic {(b.n, b.cutoff, b.shape)}"
            )
        p = a.square("a pluriharmonic function")
        if 0 in b.blocks:
            raise InputError("co-analytic coefficients start at degree 1; no constant term")
        self.n, self.cutoff, self.shape, self.p = a.n, a.cutoff, a.shape, p

    def is_selfadjoint(self):
        """A_0 is Hermitian and B_a = A_a* word by word, each to 1e-12 (1 + ||A_0||)."""
        a0 = self.analytic.constant_term()
        tol = 1e-12 * (1.0 + operator_norm(a0))
        gap = self.coanalytic - self.analytic.without_constant().adjoint()
        return operator_norm(a0 - adjoint(a0)) <= tol and all(
            operator_norm(c) <= tol for _, block in gap.blocks.values() for c in block
        )


def real_part(f):
    """Re f = (f + f*)/2 as a pluriharmonic function.

    Analytic part: (f_0 + f_0*)/2 at the empty word and f_a/2 beyond;
    co-analytic part f_a*/2.
    """
    f.square("real part")
    f0 = f.constant_term()
    half = f.without_constant().scale(0.5)
    constant = FreeSeries(f.n, f.cutoff, f.shape, {(): (f0 + adjoint(f0)) / 2.0})
    return PluriharmonicFn(half + constant, half.adjoint())


def eval_at(h, X):
    """Evaluate h at an operator tuple; the scope rules of series.eval_at,
    one jsr estimate for both parts, the analytic part's radius test first."""
    eval_scope((h.analytic, h.coanalytic.adjoint()), X)
    return value_at(h, X)


def value_at(h, X):
    """h(X) with no scope test: the analytic part and the adjoint of the
    co-analytic part, summed on one word_sum tree."""
    X.check_letters(h.n, "series")
    a, b = word_sum(X.stack, h.p, [h.analytic.blocks, h.coanalytic.adjoint().blocks])[:, 0]
    return a + adjoint(b)


def radial_boundary(h, r, m):
    """h(r S^(m)) on C^p (x) P^(m); r = 1 is allowed at finite m."""
    if not 0.0 <= r <= 1.0:
        raise InputError(f"radius {r} outside [0, 1]")
    return shift_sum(h.n, m, h.p, h.analytic.radial(r).blocks, h.coanalytic.radial(r).blocks)


def poisson_at(h, X, r, N):
    """P_Y[h(r S^(N))] at Y = X / r in closed form, building nothing on P^(N):
    the kernel's blocks are Delta_Y Y_s*, so sum_{|s|<=j} Y_s Delta_Y^2 Y_s*
    = I - Q_{j+1}, Q_j = sum_{|s|=j} Y_s Y_s*, telescopes to P_Y[S_a] =
    Y_a D_|a|, D_k = I - Q_{N+1-k}.  The symbol's r^|a| cancels in Y_a:
    sum_a A_a (x) X_a D_|a| plus the adjoint of that sum over the B_a*,
    both from one word_sum with the right factors D_k, each multiplying
    its degree's sum (only the Q_j they read are kept)."""
    if not 0.0 < r <= 1.0:
        raise InputError(f"radius {r} outside (0, 1]")
    if X.row_norm >= r:
        raise ScopeError(f"tuple norm {X.row_norm:.4f} must lie below radius {r}")
    FockTrunc(h.n, N)  # checks N and the size of P^(N)
    X.check_letters(h.n, "Fock space")
    Y = X.scale(1.0 / r).check_open_ball()
    top = min(N, h.cutoff)
    check_entries((top + 2) * X.dim**2, "Poisson kernel factors")
    eye = np.eye(X.dim, dtype=complex)
    Q = deque([eye], maxlen=top + 1)  # the last top + 1 of Q_0, ..., Q_{N+1}
    for _ in range(N + 1):  # Q_j = 0 forces Q_{j+1} = 0
        Q.append(sum(y @ Q[-1] @ adjoint(y) for y in Y.matrices) if np.any(Q[-1]) else 0.0)
    right = [eye - Q[-1 - k] for k in range(top + 1)]
    parts = [{k: b for k, b in f.blocks.items() if k <= N}
             for f in (h.analytic, h.coanalytic.adjoint())]
    a, b = word_sum(X.stack, h.p, parts, right)[:, 0]
    return a + adjoint(b)


def pluriharmonic_poisson_kernel(ft, X):
    """P(R^(N), X) = sum R_~a (x) X_a* + I + adjoint, on P^(N) (x) C^p.

    Equals (I-R_X)^(-1) + (I-R_X*)^(-1) - I on the truncated space, where
    fock.dense_resolvent is exact; in scope are the open ball and, where
    the infinite sums terminate, the jointly nilpotent tuples.
    """
    if X.row_norm >= 1.0 - 1e-12 and jsr_estimate(X, max(X.dim, 1)).nilpotent_order is None:
        raise ScopeError(f"row norm {X.row_norm:.4f} >= 1 and tuple is not nilpotent")
    inv = dense_resolvent(ft, X)
    return inv + adjoint(inv) - np.eye(len(inv), dtype=complex)


# -- checks ------------------------------------------------------------------


def check_positive(h, m_max, tol):
    """h(S^(m)) >= -tol I for every m <= m_max, decided at m_max alone:
    h is selfadjoint, so h(S^(m)) is T_m of the analytic part, a principal
    submatrix of T_{m_max}, and by Cauchy interlacing lambda_min(T_m) >=
    lambda_min(T_{m_max}).  The toeplitz.tm_positivity record of T_{m_max}
    gives the verdict for every level and its min_eig is their minimum."""
    if not h.is_selfadjoint():
        raise InputError("positivity check needs a selfadjoint function")
    if m_max < 0:
        raise InputError(f"truncation level {m_max} is negative")
    return tm_positivity(h.analytic, tol, m_max)


@dataclass
class CoefficientBoundReport:
    passed: bool
    rows: list  # (degree, slice_norm, bound)


def coefficient_bound_check(h):
    """|| sum_{|a|=k} A_a* A_a ||^(1/2) <= ||A_0|| + 1e-9 for each degree."""
    bound = operator_norm(h.analytic.constant_term()) + 1e-9
    rows = [(k, h.analytic.degree_slice_norm(k), bound) for k in range(1, h.cutoff + 1)]
    return CoefficientBoundReport(all(lhs <= b for _, lhs, b in rows), rows)


@dataclass
class HarnackReport:
    passed: bool
    bound: float
    values: list


def harnack_check(h, samples, r):
    """||h(X)|| <= ||A_0|| (1+r)/(1-r) + 1e-9 on nilpotent samples of norm <= r."""
    if not 0.0 <= r < 1.0:
        raise InputError(f"radius {r} outside [0, 1)")
    bound = operator_norm(h.analytic.constant_term()) * (1.0 + r) / (1.0 - r) + 1e-9
    values = []
    for X in samples:
        if X.row_norm > r + 1e-12:
            raise InputError(f"sample row norm {X.row_norm:.4f} exceeds {r}")
        if jsr_estimate(X, max(X.dim, 1)).nilpotent_order is None:
            raise InputError("Harnack samples must be jointly nilpotent")
        values.append(operator_norm(value_at(h, X)))
    return HarnackReport(all(v <= bound for v in values), bound, values)


@dataclass
class MeanValueReport:
    passed: bool
    deviation: float
    allowance: float


def mean_value_check(h, X, r, N):
    """Poisson mean value property: h(X) equals the transform of the
    radial boundary h(r S^(N)) at X/r, exactly within truncation."""
    if not 0.0 < r < 1.0:
        raise InputError(f"radius {r} outside (0, 1)")
    if X.row_norm >= r:
        raise ScopeError(f"sample norm {X.row_norm:.4f} must be below r = {r}")
    est = jsr_estimate(X, max(X.dim, 1))
    if est.nilpotent_order is None:
        raise ScopeError("mean value check needs a jointly nilpotent sample")
    if N < est.nilpotent_order + h.cutoff:
        raise ScopeError(
            f"truncation N = {N} below nilpotency order {est.nilpotent_order} "
            f"+ cutoff {h.cutoff}; the identity would not be exact"
        )
    lhs = value_at(h, X)
    ft = FockTrunc(h.n, N)
    rhs = poisson_transform(ft, radial_boundary(h, r, N), X.scale(1.0 / r), coeff_dim=h.p)
    dev = operator_norm(lhs - rhs)
    allowance = 1e-9 * (1.0 + operator_norm(lhs))
    return MeanValueReport(dev <= allowance, dev, allowance)


def is_multi_toeplitz(A, ft, margin, tol):
    """Test the defining compressions (I (x) R_i*) A (I (x) R_j) = d_ij A
    on the truncation-safe zone of degree <= N - margin."""
    if not 1 <= margin <= ft.N:
        raise InputError(f"margin {margin} outside 1..{ft.N}")
    A = as_cmatrix(A)
    if A.shape[0] != A.shape[1] or A.shape[0] % ft.dim:
        raise InputError(f"operator of size {A.shape} does not fit C^p (x) P^({ft.N})")
    p = A.shape[0] // ft.dim
    q = ft.degree_slice(ft.N - margin)[1]
    a4 = A.reshape(p, ft.dim, p, ft.dim)
    scale = 1.0 + operator_norm(A)
    # R_i e_beta = e_{beta i}, so the compression reads A at the appended words
    dst = [ft.shift_indices((i,), append=True)[:q] for i in range(1, ft.n + 1)]
    for i, di in enumerate(dst):
        rows = a4[:, di]
        for j, dj in enumerate(dst):
            d = rows[..., dj]
            if i == j:
                d = d - a4[:, :q, :, :q]
            if operator_norm(d.reshape(p * q, p * q)) > tol * scale:
                return False
    return True
