"""Caratheodory interpolation for free holomorphic functions with
positive real part.

Problem data, Caratheodory-Fejer data and extensions are free series
(``series.FreeSeries``).  Feasibility is the positivity of the truncated
multi-Toeplitz operator of the data (an exact finite-dimensional
criterion).  The constructive extension is the central (maximum-
determinant) completion, computed in closed form one degree at a time on
dense (n^k, p, p) stacks; every output is certified by a fresh eigenvalue
computation and random nilpotent evaluations, so the solver never has to
be trusted.

The reductions between Caratheodory and Caratheodory-Fejer data are
Cayley transforms of the series; the only operator they form is the
multi-analytic one whose norm is checked, built by ``fock.shift_sum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, InputError, ScopeError
from .fock import get_trunc, random_nilpotent_tuple, shift_sum, word_sum
from .linalg import (adjoint, check_hermitian, eigh_hermitian, min_eig_hermitian,
                     operator_norm, psd_pinv)
from .pluriharmonic import PluriharmonicFn
from .series import FreeSeries, cayley_forward, cayley_inverse
from .toeplitz import assemble_T
from .transforms import MomentFunctional


def _square(data, what):
    if not data.is_square():
        raise InputError(f"{what} needs square coefficients, got {data.shape}")


@dataclass
class CaratheodoryProblem:
    """Prescribed coefficients {b_a}_{|a|<=m}: a square series with cutoff
    m whose constant term b_0 is nonzero, Hermitian and PSD."""

    data: FreeSeries

    def __post_init__(self):
        _square(self.data, "a Caratheodory problem")
        b0 = self.data.constant_term()
        if not b0.any():
            raise InputError("missing constant coefficient b_0")
        try:
            check_hermitian(b0)
        except ScopeError as exc:
            raise InputError(f"b_0 must be Hermitian: {exc}") from exc
        if min_eig_hermitian(b0) < -1e-12:
            raise InputError("b_0 must be positive semidefinite")

    n = property(lambda self: self.data.n)
    m = property(lambda self: self.data.cutoff)
    block_size = property(lambda self: self.data.shape[0])


@dataclass
class CFProblem:
    """Caratheodory-Fejer data {A_a}_{|a|<=m}, a square series with cutoff
    m, for the norm-one completion problem of multi-analytic operators."""

    data: FreeSeries

    def __post_init__(self):
        _square(self.data, "a Caratheodory-Fejer problem")

    n, m, block_size = CaratheodoryProblem.n, CaratheodoryProblem.m, CaratheodoryProblem.block_size


@dataclass
class FeasibilityReport:
    feasible: bool
    min_eig: float
    matrix_dim: int
    tol: float


def check_feasibility(prob, tol=1e-9):
    """Assemble T_m and test its smallest eigenvalue against -tol."""
    t = assemble_T(prob.data)
    me = t.min_eig()
    return FeasibilityReport(me >= -tol, me, t.entries.shape[0], tol)


def _require_feasible(prob, tol):
    feas = check_feasibility(prob, tol)
    if not feas.feasible:
        msg = f"data is infeasible at degree {prob.m}: min eig {feas.min_eig:.3e}"
        raise InfeasibleError(msg, min_eig=feas.min_eig)


@dataclass
class ExtensionResult:
    series: FreeSeries  # the extension; its cutoff is the target degree
    certificate: dict


def extend(prob, M, tol=1e-9):
    """Complete the data to degree M with T_M PSD: the central
    (maximum-determinant) completion, computed degree by degree.

    With words grouped by last letter, T_k = [[b_0, r], [r*, I_n (x) T_{k-1}]]
    and the degree-k coefficients appear only in r, so each degree is a
    3x3 block completion with an explicit central solution (Dym-Gohberg;
    Grone-Johnson-Sa-Wolkowicz): for each letter i,

        [b_{w i}]_{|w|=k-1} = T_{k-1}[|w|=k-1, |v|<=k-2] T_{k-2}^+ [b_{v i}]_{|v|<=k-2}.

    Each degree is one (n^k, p, p) stack in code order.  The result is
    re-certified from a fresh assembly of T_M.  Raises InfeasibleError
    when the data fails the degree-m criterion."""
    if M <= prob.m:
        raise InputError(f"target degree {M} must exceed m = {prob.m}")
    _require_feasible(prob, tol)
    stacks = [prob.data.dense(k) for k in range(prob.m + 1)]
    for k in range(prob.m + 1, M + 1):
        stacks.append(_central_degree(stacks, prob.n, prob.block_size))
    series = _from_stacks(stacks, prob.n, prob.block_size)

    fresh = assemble_T(series)
    p, d = prob.block_size, fresh.basis.size
    prescribed = np.concatenate(stacks[: prob.m + 1])  # column e_0 of T_M holds b_a at row a
    read = fresh.entries.reshape(p, d, p, d)[:, : len(prescribed), :, 0].transpose(1, 0, 2)
    certificate = {
        "min_eig_tm": fresh.min_eig(),
        "prescribed_error": float(np.max(np.abs(read - prescribed))),
    }
    return ExtensionResult(series, certificate)


def _from_stacks(stacks, n, p):
    """The series whose degree k is stacks[k], over every code."""
    blocks = {k: (np.arange(n**k), c) for k, c in enumerate(stacks)}
    return FreeSeries._built(n, len(stacks) - 1, (p, p), blocks)


def _central_degree(stacks, n, p):
    """The central degree-k stack from stacks[j], j < k: one pseudo-inverse of
    T_{k-2} serves all letters.  As code(v i) = code(v) n + i - 1, the known
    b_{v i}, |v| <= k - 2, are degrees 1..k-1 concatenated; y holds b_{w i} at (w, i)."""
    t = assemble_T(_from_stacks(stacks, n, p))  # T_{k-1}
    d = t.basis.size
    lo = t.basis.degree_start[-1]  # words of length <= k - 2 come first
    e4 = t.entries.reshape(p, d, p, d)
    c = e4[:, :lo, :, :lo].reshape(p * lo, p * lo)  # T_{k-2}
    bstar = e4[:, lo:, :, :lo].reshape(p * (d - lo), p * lo)
    known = np.concatenate([np.zeros((0, p, p)), *stacks[1:]])
    x = known.reshape(lo, n, p, p).transpose(2, 0, 1, 3).reshape(p * lo, n * p)
    y = (bstar @ (psd_pinv(c) @ x)).reshape(p, d - lo, n, p)
    return y.transpose(1, 2, 0, 3).reshape(-1, p, p)


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
    _require_feasible(prob, tol)
    b0 = prob.data.constant_term()
    if reg_eps is None:
        reg_eps = 1e-10 * (1.0 + operator_norm(b0))
    nrm = _inv_sqrt_psd(b0, reg_eps)
    p = prob.block_size
    normalized = {w: nrm @ c @ nrm for w, c in prob.data.coeffs.items() if w}
    cf = cayley_inverse(FreeSeries(prob.n, prob.m, (p, p), normalized))
    ft = get_trunc(prob.n, prob.m)
    xn = operator_norm(shift_sum(ft, p, cf.coeffs, {}, ft.prepend_indices))
    if xn > 1.0 + 1e-9:
        raise ScopeError(f"inverse Cayley image has norm {xn:.12f} > 1 + 1e-9")
    return CFProblem(cf)


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
    nrm = operator_norm(shift_sum(ft, prob.block_size, prob.data.coeffs, {}, ft.append_indices))
    return CFReport(nrm, nrm <= 1.0 + tol, tol)


def cf_to_caratheodory(prob, tol=1e-9):
    """Lift CF data to a feasible Caratheodory problem at degree m + 1:
    the forward Cayley transform of the series sum_a A_a Z_{g1 a}, with
    b_0 = I."""
    report = cf_check(prob, tol)
    if not report.within:
        raise InfeasibleError(f"CF norm {report.norm:.6f} exceeds 1", min_eig=None)
    # code(g1 a) = code(a): degree k of the data is degree k + 1 of the shift
    shifted = {k + 1: block for k, block in prob.data.blocks.items()}
    p = prob.block_size
    g = cayley_forward(FreeSeries._built(prob.n, prob.m + 1, (p, p), shifted))
    return CaratheodoryProblem(g + FreeSeries.one(prob.n, prob.m + 1, p))


@dataclass
class VerificationReport:
    passed: bool
    checks: dict  # name -> (ok, value)


def verify_solution(prob, ext, samples=20, seed=0, tol=1e-8):
    """Independent certificate of an extension: exact reproduction of the
    prescribed coefficients, fresh positivity of T_M, positivity of
    Re g at random jointly nilpotent tuples (g has constant b_0 / 2),
    and the per-degree coefficient bound against ||b_0||."""
    f = ext.series
    M = f.cutoff
    checks = {}

    dev = max(float(np.max(np.abs(f.dense(k) - prob.data.dense(k)))) for k in range(prob.m + 1))
    checks["prescribed_exact"] = (dev == 0.0, dev)

    me = assemble_T(f).min_eig()
    checks["extension_psd"] = (me >= -tol, me)

    rng = np.random.default_rng(seed)
    b0 = prob.data.constant_term()
    half = (np.zeros(1, np.int64), b0[None] / 2.0)
    terms = FreeSeries._built(prob.n, M, f.shape, {**f.blocks, 0: half}).coeffs
    worst = np.inf
    for _ in range(samples):
        X = random_nilpotent_tuple(rng, prob.n, M + 1, row_norm=float(rng.uniform(0.2, 0.95)))
        g = word_sum(X, terms, prob.block_size)
        worst = min(worst, min_eig_hermitian((g + adjoint(g)) / 2.0))
    checks["nilpotent_positive"] = (worst >= -tol, worst)

    slices = (math.sqrt(f.degree_slice_gram_norm(k)) for k in range(1, M + 1))
    worst_slice = max(slices, default=0.0)
    checks["coefficient_bound"] = (worst_slice <= operator_norm(b0) + tol, worst_slice)

    return VerificationReport(all(ok for ok, _ in checks.values()), checks)


def moment_problem_view(prob):
    """The trigonometric moment data of a scalar problem: the functional
    with mu(R_~a) = conj(b_a), mu(R_~a*) = b_a, mu(I) = b_0; bookkeeping
    only, nothing is solved."""
    if prob.block_size != 1:
        raise InputError("moment view is defined for scalar problems only")
    return MomentFunctional(PluriharmonicFn(prob.data, prob.data.without_constant().adjoint()))
