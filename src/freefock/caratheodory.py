"""Caratheodory interpolation for free holomorphic functions with
positive real part.

Problem data, Caratheodory-Fejer data and extensions are free series
(``series.FreeSeries``).  Feasibility is the positivity of the truncated
multi-Toeplitz operator of the data (an exact finite-dimensional
criterion), decided by the dense smallest eigenvalue at small sizes and
by the recursive Schur factorisation of ``toeplitz`` above them.  The
constructive extension is the central (maximum-determinant) completion,
computed in closed form from that factorisation; every output is
certified by a positivity computation on its own coefficients and by
random nilpotent evaluations, so the solver never has to be trusted.

The reductions between Caratheodory and Caratheodory-Fejer data are
Cayley transforms of the series; the only operator they form is the
multi-analytic one whose norm is checked, built by ``fock.shift_sum``
from the series blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, InputError, ScopeError
from .fock import random_nilpotent_tuple, shift_sum, word_products
from .linalg import (adjoint, check_entries, check_hermitian, eigh_hermitian,
                     min_eig_hermitian, operator_norm)
from .pluriharmonic import PluriharmonicFn
from .series import FreeSeries, _degree_sum, cayley_forward, cayley_inverse
from .toeplitz import DENSE_DIM, dense_norm, schur_factor, tm_positivity
from .transforms import MomentFunctional
from .words import word_count


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


def check_feasibility(prob, tol=1e-9):
    """Positivity of T_m within tol (toeplitz.tm_positivity): the dense
    smallest eigenvalue where toeplitz.dense_decides, else a Schur
    factorisation of T_m + tol I."""
    return tm_positivity(prob.data, tol)


def _require_feasible(prob, tol):
    feas = check_feasibility(prob, tol)
    if not feas.feasible:
        label = "min eig" if feas.min_eig is not None else "Schur margin"
        msg = f"data is infeasible at degree {prob.m}: {label} {feas.value:.3e}"
        raise InfeasibleError(msg, min_eig=feas.min_eig)


@dataclass
class ExtensionResult:
    series: FreeSeries  # the extension; its cutoff is the target degree
    certificate: dict
    # (series, TmPositivity of its T_M) from extend, read again by
    # verify_solution only while the series is that same object
    tm: tuple | None = field(default=None, repr=False, compare=False)


def extend(prob, M, tol=1e-9):
    """Complete the data to degree M with T_M PSD: the central
    (maximum-determinant) completion (Dym-Gohberg).

    With words in last-letter tree order, T_k = [[b_0, r], [r*, I_n (x) T_{k-1}]]
    and the degree-k coefficients appear only in r.  The central choice
    keeps Z^(k) = T_{k-1}^+ r* zero at the new words, so Z^(k) = Z^(m) for
    every k > m and, with zeta_{v i} = Z_i^(m)[v] from one Schur
    factorisation of T_{m-1} (toeplitz.schur_factor), each new coefficient
    is the split sum

        b_c = sum_{c = a e, 1 <= |e| <= m} b_a zeta_e,     |c| > m,

    one series._degree_sum per degree.  Every pivot s_k, k > m, then
    equals s_m (the free maximum-entropy property).  T_M's positivity is
    computed once, from the result's own coefficients (tm_positivity),
    and kept for verify_solution.  Raises InfeasibleError when the data
    fails the degree-m criterion."""
    if M <= prob.m:
        raise InputError(f"target degree {M} must exceed m = {prob.m}")
    _require_feasible(prob, tol)
    n, m, p = prob.n, prob.m, prob.block_size
    check_entries(word_count(n, M) * p * p, "extension")
    blocks = dict(prob.data.blocks)
    if m:
        z = schur_factor(prob.data, psd=True).z_graded(m)
        zeta = {e: (np.arange(n**e), z[word_count(n, e - 1):word_count(n, e)])
                for e in range(1, m + 1)}
        for k in range(m + 1, M + 1):
            pairs = [(blocks[k - e], zeta[e], n**e) for e in zeta if k - e in blocks]
            if pairs:
                blocks[k] = _degree_sum(pairs, (p, p), n**k)
    series = FreeSeries._built(n, M, (p, p), blocks)
    tm = tm_positivity(series, tol)
    certificate = {
        f"{tm.label}_tm": tm.value,
        "prescribed_error": _prescribed_error(prob, series),
    }
    return ExtensionResult(series, certificate, (series, tm))


def _prescribed_error(prob, f):
    """Largest deviation of f's coefficients of degree <= m from the data."""
    return max(float(np.max(np.abs(f.dense(k) - prob.data.dense(k)))) for k in range(prob.m + 1))


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
    they define is a contraction up to 1e-9 whenever the data is feasible:
    its dense norm is checked up to NORM_DENSE_DIM, one inertia count at
    sigma = 1 + 1e-9 (multianalytic.norm_exceeds) above it.
    """
    _require_feasible(prob, tol)
    b0 = prob.data.constant_term()
    if reg_eps is None:
        reg_eps = 1e-10 * (1.0 + operator_norm(b0))
    nrm = _inv_sqrt_psd(b0, reg_eps)
    p = prob.block_size
    normalized = {k: (codes, nrm @ c @ nrm) for k, (codes, c) in prob.data.blocks.items() if k}
    cf = cayley_inverse(FreeSeries._built(prob.n, prob.m, (p, p), normalized))
    if dense_norm(prob.n, prob.m, p):
        xn = operator_norm(shift_sum(prob.n, prob.m, p, cf.blocks))
        if xn > 1.0 + 1e-9:
            raise ScopeError(f"inverse Cayley image has norm {xn:.12f} > 1 + 1e-9")
    else:
        from .multianalytic import norm_exceeds

        if norm_exceeds(cf, prob.m, 1.0 + 1e-9):
            raise ScopeError("inverse Cayley image has norm > 1 + 1e-9 (a negative Schur pivot)")
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
    the commutant picture of multi-analytic operators.  Above
    NORM_DENSE_DIM the flip e_w -> e_{reverse(w)} carries it to f(S^(m))
    for the word-reversed series, whose norm multianalytic.certified_norm
    computes; the verdict then reads that value."""
    n, m, p = prob.n, prob.m, prob.block_size
    if dense_norm(n, m, p):
        nrm = operator_norm(shift_sum(n, m, p, prob.data.blocks, append=True))
    else:
        from .multianalytic import certified_norm

        nrm = certified_norm(prob.data.reversed(), m).value
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
    prescribed coefficients, positivity of T_M, positivity of Re g at
    random jointly nilpotent tuples (g has constant b_0 / 2), and the
    per-degree coefficient bound against ||b_0||.

    T_M's positivity is the one extend computed for this same series
    object, when that record decides it at tol; any other series, such as
    a corrupted copy under the original certificate, is computed fresh.
    The samples are drawn in order, then evaluated in chunks over the
    words of fock.word_products, read from the blocks of the extension and
    b_0 / 2: one batched matmul per degree and one einsum per chunk.
    A chunk takes as many samples as fit in min(d p, DENSE_DIM)^2 entries
    of products, the size of the dense T_M that positivity assembles at or
    below DENSE_DIM, but at least one: one sample alone holds d (M + 1)^2
    entries (7.4M at n = 2, M = 14), checked only against MAX_DIM^2.  Each
    g equals fock.word_sum at its tuple bit for bit."""
    if samples < 1:
        raise InputError(f"sample count {samples} must be at least 1")
    f = ext.series
    M, p = f.cutoff, prob.block_size
    checks = {}

    dev = _prescribed_error(prob, f)
    checks["prescribed_exact"] = (dev == 0.0, dev)

    source, tm = ext.tm or (None, None)
    ok = tm.verdict(tol) if source is f else None
    if ok is None:
        tm = tm_positivity(f, tol)
        ok = tm.verdict(tol)
    checks["extension_psd"] = (ok, tm.value)

    rng = np.random.default_rng(seed)
    b0 = prob.data.constant_term()
    half = (np.zeros(1, np.int64), b0[None] / 2.0)
    c, products = word_products(prob.n, {**f.blocks, 0: half}, p)
    tuples = [
        random_nilpotent_tuple(rng, prob.n, M + 1, row_norm=float(rng.uniform(0.2, 0.95)))
        for _ in range(samples)
    ]
    per_sample = len(c) * (M + 1) ** 2
    check_entries(per_sample, "nilpotent sample")
    chunk = max(1, min(tm.matrix_dim, DENSE_DIM) ** 2 // per_sample)
    worst = np.inf
    for lo in range(0, samples, chunk):
        xs = np.array([X.matrices for X in tuples[lo:lo + chunk]])
        g = np.einsum("wab,wsij->saibj", c, products(xs.swapaxes(0, 1)))
        g = g.reshape(len(xs), p * (M + 1), p * (M + 1))
        worst = min(worst, float(np.linalg.eigvalsh((g + g.conj().swapaxes(1, 2)) / 2.0).min()))
    checks["nilpotent_positive"] = (worst >= -tol, worst)

    slices = (f.degree_slice_norm(k) for k in range(1, M + 1))
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
