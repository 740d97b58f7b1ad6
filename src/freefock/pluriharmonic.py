"""Free pluriharmonic functions: an analytic and a co-analytic free
series, evaluation, radial boundary operators, and the positivity,
Harnack, coefficient-bound, mean-value, and multi-Toeplitz checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ScopeError
from .fock import FockTrunc, poisson_transform, reconstruction_operator, shift_sum
from .linalg import adjoint, as_cmatrix, min_eig_hermitian, operator_norm, solve
from .series import FreeSeries, eval_report, jsr_estimate
from .toeplitz import dense_decides, schur_factor
from .words import word_count


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
        if not a.is_square():
            raise InputError("pluriharmonic coefficients must be square")
        if 0 in b.blocks:
            raise InputError("co-analytic coefficients start at degree 1; no constant term")
        self.n, self.cutoff, self.shape, self.p = a.n, a.cutoff, a.shape, a.shape[0]

    def is_selfadjoint(self, tol=1e-12):
        """A_0 is Hermitian and B_a = A_a* word by word, each to tol (1 + ||A_0||)."""
        a0 = self.analytic.constant_term()
        scale = 1.0 + operator_norm(a0)
        gap = self.coanalytic - self.analytic.without_constant().adjoint()
        return operator_norm(a0 - adjoint(a0)) <= tol * scale and all(
            operator_norm(c) <= tol * scale for _, block in gap.blocks.values() for c in block
        )


def real_part(f):
    """Re f = (f + f*)/2 as a pluriharmonic function.

    Analytic part: (f_0 + f_0*)/2 at the empty word and f_a/2 beyond;
    co-analytic part f_a*/2.
    """
    if not f.is_square():
        raise InputError("real part needs square coefficients")
    f0 = f.constant_term()
    half = f.without_constant().scale(0.5)
    constant = FreeSeries(f.n, f.cutoff, f.shape, {(): (f0 + adjoint(f0)) / 2.0})
    return PluriharmonicFn(half + constant, half.adjoint())


def eval_at(h, X, jsr_depth=None):
    """Evaluate h at an operator tuple; same scope rules as series.eval_at."""
    rep_a = eval_report(h.analytic, X, jsr_depth)
    rep_b = eval_report(h.coanalytic.adjoint(), X, jsr_depth)
    return rep_a.value + adjoint(rep_b.value)


def radial_boundary(h, r, m):
    """h(r S^(m)) on C^p (x) P^(m); r = 1 is allowed at finite m."""
    if not 0.0 <= r <= 1.0:
        raise InputError(f"radius {r} outside [0, 1]")
    return shift_sum(h.n, m, h.p, h.analytic.radial(r).blocks, h.coanalytic.radial(r).blocks)


def pluriharmonic_poisson_kernel(ft, X):
    """P(R^(N), X) = sum R_~a (x) X_a* + I + adjoint, on P^(N) (x) C^p.

    Equals (I-R_X)^(-1) + (I-R_X*)^(-1) - I on the truncated space; the
    resolvent is taken by a solve inside the open ball and by the
    terminating Neumann sum for nilpotent tuples.
    """
    if X.n != ft.n:
        raise InputError(f"tuple has {X.n} operators, Fock space expects {ft.n}")
    rx = reconstruction_operator(ft, X)
    eye = np.eye(rx.shape[0], dtype=complex)
    if X.row_norm < 1.0 - 1e-12:
        analytic = solve(eye - rx, eye) - eye
    else:
        est = jsr_estimate(X, max(X.dim, 1))
        if est.nilpotent_order is None:
            raise ScopeError(
                f"row norm {X.row_norm:.4f} >= 1 and tuple is not nilpotent"
            )
        analytic = np.zeros_like(rx)
        power = eye
        for _ in range(min(ft.N, est.nilpotent_order - 1)):
            power = power @ rx
            analytic += power
    return eye + analytic + adjoint(analytic)


# -- checks ------------------------------------------------------------------


@dataclass
class PositivityReport:
    passed: bool
    min_eigs: list  # dense smallest eigenvalue of h(S^(m)), m = 0, 1, ...
    m_max: int
    tol: float
    schur_margins: list = field(default_factory=list)  # the levels after min_eigs


def check_positive(h, m_max, tol):
    """h(S^(m)) >= -tol I for every m <= m_max; positive pluriharmonic
    functions pass at every truncation level.  h(S^(m)) is T_m of the
    analytic part, so the levels where toeplitz.dense_decides report
    their dense smallest eigenvalue and the higher ones the margins of one
    Schur factorisation of T_{m_max} + tol I, whose pivots serve every
    level because the T_m are nested."""
    if not h.is_selfadjoint():
        raise InputError("positivity check needs a selfadjoint function")
    eigs, margins, m = [], [], 0
    while m <= m_max and dense_decides(h.n, word_count(h.n, m) * h.p):
        eigs.append(min_eig_hermitian(radial_boundary(h, 1.0, m)))
        m += 1
    passed = all(e >= -tol for e in eigs)
    if m <= m_max:
        fac = schur_factor(h.analytic, shift=tol, stop=True, levels=m_max)
        margins = [fac.margin(min(j, fac.levels)) for j in range(m, m_max + 1)]
        passed = passed and fac.is_psd
    return PositivityReport(passed, eigs, m_max, tol, margins)


@dataclass
class CoefficientBoundReport:
    passed: bool
    rows: list  # (degree, slice_norm, bound)


def coefficient_bound_check(h, tol=1e-9):
    """|| sum_{|a|=k} A_a* A_a ||^(1/2) <= ||A_0|| for each degree."""
    bound = operator_norm(h.analytic.constant_term()) + tol
    rows = []
    for k in range(1, h.cutoff + 1):
        lhs = h.analytic.degree_slice_norm(k)
        rows.append((k, lhs, bound))
    return CoefficientBoundReport(all(lhs <= b for _, lhs, b in rows), rows)


@dataclass
class HarnackReport:
    passed: bool
    bound: float
    values: list


def harnack_check(h, samples, r, tol=1e-9):
    """||h(X)|| <= ||A_0|| (1+r)/(1-r) on nilpotent samples of norm <= r."""
    if not 0.0 <= r < 1.0:
        raise InputError(f"radius {r} outside [0, 1)")
    bound = operator_norm(h.analytic.constant_term()) * (1.0 + r) / (1.0 - r) + tol
    values = []
    for X in samples:
        if X.row_norm > r + 1e-12:
            raise InputError(f"sample row norm {X.row_norm:.4f} exceeds {r}")
        if jsr_estimate(X, max(X.dim, 1)).nilpotent_order is None:
            raise InputError("Harnack samples must be jointly nilpotent")
        values.append(operator_norm(eval_at(h, X)))
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
    lhs = eval_at(h, X)
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
