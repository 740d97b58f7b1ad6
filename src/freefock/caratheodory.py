"""Caratheodory interpolation for free holomorphic functions with
positive real part.

Feasibility is the positivity of the truncated multi-Toeplitz operator
built from the data (an exact finite-dimensional criterion).  The
constructive extension is the central (maximum-determinant) completion,
computed degree by degree in closed form; every output is certified by
a fresh eigenvalue computation and random nilpotent evaluations, so the
solver never has to be trusted.

The reductions between Caratheodory and Caratheodory-Fejer data are
series-level Cayley transforms of the coefficients; the only operator
they form is the multi-analytic one whose norm is checked, built by
``fock.shift_sum``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, InputError, ScopeError
from .fock import get_trunc, random_nilpotent_tuple, shift_sum, word_sum
from .linalg import (
    adjoint,
    check_hermitian,
    eigh_hermitian,
    min_eig_hermitian,
    operator_norm,
    psd_pinv,
)
from .pluriharmonic import PluriharmonicFn
from .series import FreeSeries, cayley_forward, cayley_inverse
from .toeplitz import assemble_T, validate_coeffs
from .transforms import MomentFunctional
from .words import GradedBasis


@dataclass
class _CoefficientData:
    """p x p coefficients keyed by words over n letters of length <= m."""

    n: int
    m: int
    coeffs: dict
    block_size: int = 0

    def coefficient(self, w):
        c = self.coeffs.get(tuple(w))
        if c is None:
            return np.zeros((self.block_size, self.block_size), dtype=complex)
        return c.copy()


@dataclass
class CaratheodoryProblem(_CoefficientData):
    """Prescribed coefficients {b_a}_{|a|<=m}, b_0 Hermitian PSD; absent
    words are zero."""

    def __post_init__(self):
        self.coeffs, p = validate_coeffs(self.coeffs, self.n, self.m)
        if self.block_size and self.block_size != p:
            raise InputError("block_size disagrees with coefficient shape")
        self.block_size = p
        try:
            b0 = check_hermitian(self.coeffs[()])
        except ScopeError as exc:
            raise InputError(f"b_0 must be Hermitian: {exc}") from exc
        if min_eig_hermitian(b0) < -1e-12:
            raise InputError("b_0 must be positive semidefinite")


@dataclass
class CFProblem(_CoefficientData):
    """Caratheodory-Fejer data {A_a}_{|a|<=m} for the norm-one completion
    problem of multi-analytic operators."""

    def __post_init__(self):
        self.coeffs, p = validate_coeffs(self.coeffs, self.n, self.m, require_b0=False)
        if p is None and not self.block_size:
            raise InputError("empty CF problem needs an explicit block_size")
        if p is not None and self.block_size and self.block_size != p:
            raise InputError("block_size disagrees with coefficient shape")
        self.block_size = self.block_size or p


@dataclass
class FeasibilityReport:
    feasible: bool
    min_eig: float
    matrix_dim: int
    tol: float


def check_feasibility(prob, tol=1e-9):
    """Assemble T_m and test its smallest eigenvalue against -tol."""
    t = assemble_T(prob.coeffs, prob.n, prob.m)
    me = t.min_eig()
    return FeasibilityReport(me >= -tol, me, t.entries.shape[0], tol)


@dataclass
class ExtensionResult:
    target_deg: int
    coeffs: dict
    certificate: dict


def extend(prob, M, tol=1e-9):
    """Complete the data to degree M with T_M PSD: the central
    (maximum-determinant) completion, computed degree by degree.

    With words grouped by last letter, T_k = [[b_0, r], [r*, I_n (x) T_{k-1}]]
    and the degree-k coefficients appear only in r, so each degree is a
    3x3 block completion with an explicit central solution (Dym-Gohberg;
    Grone-Johnson-Sa-Wolkowicz): for each letter i,

        [b_{w i}]_{|w|=k-1} = T_{k-1}[|w|=k-1, |v|<=k-2] T_{k-2}^+ [b_{v i}]_{|v|<=k-2}.

    The result is re-certified from a fresh assembly of T_M.  Raises
    InfeasibleError when the data fails the degree-m criterion.
    """
    if M <= prob.m:
        raise InputError(f"target degree {M} must exceed m = {prob.m}")
    feas = check_feasibility(prob, tol)
    if not feas.feasible:
        raise InfeasibleError(
            f"data is infeasible at degree {prob.m}: min eig {feas.min_eig:.3e}",
            min_eig=feas.min_eig,
        )
    prescribed = GradedBasis(prob.n, prob.m).words
    coeffs = {w: prob.coefficient(w) for w in prescribed}
    for k in range(prob.m + 1, M + 1):
        _central_degree(coeffs, prob.n, prob.block_size, k)

    fresh = assemble_T(coeffs, prob.n, M)
    read = fresh.block(slice(0, len(prescribed)), 0).transpose(1, 0, 2)
    want = np.array([prob.coefficient(w) for w in prescribed])
    certificate = {
        "min_eig_tm": fresh.min_eig(),
        "prescribed_error": float(np.max(np.abs(read - want))),
    }
    return ExtensionResult(M, coeffs, certificate)


def _central_degree(coeffs, n, p, k):
    """Add the central degree-k coefficients to coeffs, which holds every
    word of length < k.  One pseudo-inverse of T_{k-2} serves all letters."""
    t = assemble_T(coeffs, n, k - 1)
    d = t.basis.size
    lo = t.basis.degree_start[k - 1]  # words of length <= k - 2 come first
    e4 = t.entries.reshape(p, d, p, d)
    c = e4[:, :lo, :, :lo].reshape(p * lo, p * lo)  # T_{k-2}
    bstar = e4[:, lo:, :, :lo].reshape(p * (d - lo), p * lo)
    known = np.array(
        [[coeffs[v + (i,)] for i in range(1, n + 1)] for v in t.basis.words[:lo]]
    ).reshape(lo, n, p, p)
    x = known.transpose(2, 0, 1, 3).reshape(p * lo, n * p)
    y = (bstar @ (psd_pinv(c) @ x)).reshape(p, d - lo, n, p)
    for j, w in enumerate(t.basis.words[lo:]):
        for i in range(1, n + 1):
            coeffs[w + (i,)] = y[:, j, i - 1, :]


def _inv_sqrt_psd(a, reg):
    w, v = eigh_hermitian(a)
    w = w + reg
    if w[0] <= 0:
        raise ScopeError(f"b_0 + {reg:.1e} I is not positive definite")
    return (v / np.sqrt(w)) @ adjoint(v)


def cayley_route(prob, reg_eps=None, tol=1e-9):
    """Reduce a feasible problem to Caratheodory-Fejer data.

    Normalizes by (b_0 + eps I)^(-1/2) on both sides and takes the
    inverse Cayley transform of the series sum_a D_a Z_a; its coefficients
    are the CF data.  The multi-analytic operator sum_a A_a (x) S_a^(m)
    they define is a contraction up to 1e-9 whenever the data is feasible.
    """
    feas = check_feasibility(prob, tol)
    if not feas.feasible:
        raise InfeasibleError(
            f"data is infeasible: min eig {feas.min_eig:.3e}", min_eig=feas.min_eig
        )
    b0 = prob.coeffs[()]
    if reg_eps is None:
        reg_eps = 1e-10 * (1.0 + operator_norm(b0))
    nrm = _inv_sqrt_psd(b0, reg_eps)
    p = prob.block_size
    normalized = {w: nrm @ c @ nrm for w, c in prob.coeffs.items() if w}
    cf = cayley_inverse(FreeSeries(prob.n, prob.m, (p, p), normalized))
    ft = get_trunc(prob.n, prob.m)
    xn = operator_norm(shift_sum(ft, p, cf.coeffs, {}, ft.prepend_indices))
    if xn > 1.0 + 1e-9:
        raise ScopeError(f"inverse Cayley image has norm {xn:.12f} > 1 + 1e-9")
    return CFProblem(prob.n, prob.m, cf.coeffs, p)


@dataclass
class CFReport:
    norm: float
    within: bool
    tol: float


def cf_check(prob, tol=1e-9):
    """Solvability criterion ||A_m|| <= 1 for the CF problem, with A_m the
    multi-analytic matrix [A_{a,b}] (block (a, b) is A_{a \\_l b} when
    a >=_l b): the right-translation sum sum_a A_a (x) (e_b -> e_{b a}),
    the commutant picture of multi-analytic operators."""
    ft = get_trunc(prob.n, prob.m)
    nrm = operator_norm(shift_sum(ft, prob.block_size, prob.coeffs, {}, ft.append_indices))
    return CFReport(nrm, nrm <= 1.0 + tol, tol)


def cf_to_caratheodory(prob, tol=1e-9):
    """Lift CF data to a feasible Caratheodory problem at degree m + 1:
    the forward Cayley transform of the series sum_a A_a Z_{g1 a}, with
    b_0 = I."""
    report = cf_check(prob, tol)
    if not report.within:
        raise InfeasibleError(f"CF norm {report.norm:.6f} exceeds 1", min_eig=None)
    p = prob.block_size
    shifted = {(1,) + w: c for w, c in prob.coeffs.items()}
    g = cayley_forward(FreeSeries(prob.n, prob.m + 1, (p, p), shifted))
    coeffs = {(): np.eye(p, dtype=complex)}
    coeffs.update(g.coeffs)
    return CaratheodoryProblem(prob.n, prob.m + 1, coeffs, p)


@dataclass
class VerificationReport:
    passed: bool
    checks: dict  # name -> (ok, value)


def verify_solution(prob, ext, samples=20, seed=0, tol=1e-8):
    """Independent certificate of an extension: exact reproduction of the
    prescribed coefficients, fresh positivity of T_M, positivity of
    Re g at random jointly nilpotent tuples (g has constant b_0 / 2),
    and the per-degree coefficient bound against ||b_0||."""
    M = ext.target_deg
    p = prob.block_size
    checks = {}

    dev = 0.0
    for w in GradedBasis(prob.n, prob.m).words:
        e = ext.coeffs.get(w)
        e = e if e is not None else np.zeros((p, p), dtype=complex)
        dev = max(dev, float(np.max(np.abs(e - prob.coefficient(w)))))
    checks["prescribed_exact"] = (dev == 0.0, dev)

    fresh = assemble_T(ext.coeffs, prob.n, M)
    me = fresh.min_eig()
    checks["extension_psd"] = (me >= -tol, me)

    rng = np.random.default_rng(seed)
    b0 = prob.coeffs[()]
    terms = {(): b0 / 2.0}
    terms.update((w, c) for w, c in ext.coeffs.items() if w)
    worst = np.inf
    for _ in range(samples):
        X = random_nilpotent_tuple(
            rng, prob.n, M + 1, row_norm=float(rng.uniform(0.2, 0.95))
        )
        g = word_sum(X, terms, p)
        worst = min(worst, min_eig_hermitian((g + adjoint(g)) / 2.0))
    checks["nilpotent_positive"] = (worst >= -tol, worst)

    bound = operator_norm(b0) + tol
    worst_slice = 0.0
    for k in range(1, M + 1):
        gram = np.zeros((p, p), dtype=complex)
        for w, c in ext.coeffs.items():
            if len(w) == k:
                gram += adjoint(c) @ c
        worst_slice = max(worst_slice, float(np.sqrt(operator_norm(gram))))
    checks["coefficient_bound"] = (worst_slice <= bound, worst_slice)

    return VerificationReport(all(ok for ok, _ in checks.values()), checks)


def moment_problem_view(prob):
    """The trigonometric moment data of a scalar problem: the functional
    with mu(R_~a) = conj(b_a), mu(R_~a*) = b_a, mu(I) = b_0; bookkeeping
    only, nothing is solved."""
    if prob.block_size != 1:
        raise InputError("moment view is defined for scalar problems only")
    b = FreeSeries(prob.n, prob.m, (1, 1), prob.coeffs)
    return MomentFunctional(PluriharmonicFn(b, b.without_constant().adjoint()))
