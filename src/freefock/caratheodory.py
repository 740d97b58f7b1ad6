"""Caratheodory interpolation for free holomorphic functions with
positive real part.

Problem data, Caratheodory-Fejer data and extensions are free series
(``series.FreeSeries``).  Feasibility is the positivity of the truncated
multi-Toeplitz operator of the data (an exact finite-dimensional
criterion), decided by ``toeplitz.tm_positivity``: the dense smallest
eigenvalue at small sizes, the recursive Schur factorisation and a
bracket of that eigenvalue by Newton-steered probes of its inertia above
them.  The
constructive extension is the central (maximum-determinant) completion,
computed in closed form from that factorisation; every output is
certified by a positivity computation on its own coefficients and by
random nilpotent evaluations, so the solver never has to be trusted.

The reductions between Caratheodory and Caratheodory-Fejer data are
Cayley transforms of the series; the only operator they form is the
multi-analytic one whose norm is checked (``multianalytic.hinf_norm``), and
only at the sizes where its dense SVD decides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError, InputError, ScopeError
from .fock import SplitMix64, random_nilpotent_stack, word_sum, word_sum_entries
from .linalg import adjoint, check_entries, eigh_hermitian, min_eig_hermitian, operator_norm
from .multianalytic import hinf_norm
from .pluriharmonic import PluriharmonicFn
from .products import Stack, degree_sum
from .series import FreeSeries, cayley_forward, cayley_inverse
from .toeplitz import shifted_factor, tm_positivity
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
            psd = min_eig_hermitian(b0) >= -1e-12
        except ScopeError as exc:
            raise InputError(f"b_0 must be Hermitian: {exc}") from exc
        if not psd:
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
    factorisation of T_m + tol I and a bracket of the smallest eigenvalue."""
    return tm_positivity(prob.data, tol)


def _require_feasible(prob, tol):
    feas = check_feasibility(prob, tol)
    if not feas.feasible:
        raise InfeasibleError(f"data is infeasible at degree {prob.m}: min eig {feas.min_eig:.3e}")


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
    factorisation of T_m (toeplitz.shifted_factor), each new coefficient
    is the split sum

        b_c = sum_{c = a e, 1 <= |e| <= m} b_a zeta_e,     |c| > m,

    one products.degree_sum per degree.  Every pivot s_k, k > m, then
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
        fac = shifted_factor(prob.data)(0.0, psd=True)
        z = fac.graded(np.concatenate([np.zeros((1, p, p)), fac.z[m].reshape(-1, p, p)]))
        zeta = {e: (np.arange(n**e), z[word_count(n, e - 1):word_count(n, e)])
                for e in range(1, m + 1)}
        right = Stack(zeta, range(1, m + 1), (p, p))
        left = Stack(blocks, list(blocks), (p, p), left=True)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow shows as inf or nan
            for k in range(m + 1, M + 1):
                lm, rm, _ = left.splits(n, k, right)
                if rm.shape[1]:
                    blocks[k] = degree_sum(n, k, left, right, lm, rm, (p, p))
                    left.append(k, *blocks[k])
    series = FreeSeries._built(n, M, (p, p), blocks)
    tm = tm_positivity(series, tol)
    certificate = {
        "min_eig_tm": tm.min_eig,
        "prescribed_error": _prescribed_error(prob, series),
    }
    return ExtensionResult(series, certificate, (series, tm))


def _prescribed_error(prob, f):
    """Largest deviation of f's coefficients of degree <= m from the data."""
    return float(np.max(np.abs(f.graded_stack(prob.m) - prob.data.graded_stack(prob.m))))


def _inv_sqrt_psd(a, reg):
    w, v = eigh_hermitian(a)
    w = w + reg
    if w[0] <= 0:
        raise ScopeError(f"b_0 + {reg:.1e} I is not positive definite")
    return (v / np.sqrt(w)) @ adjoint(v)


def cayley_route(prob, reg_eps=None):
    """Reduce a feasible problem to Caratheodory-Fejer data.

    Normalizes by (b_0 + eps I)^(-1/2) on both sides and takes the
    inverse Cayley transform of the series sum_a D_a Z_a; its coefficients
    are the CF data.  The multi-analytic operator sum_a A_a (x) S_a^(m)
    they define is a contraction up to 1e-9 whenever the data is feasible;
    a value of multianalytic.hinf_norm above that is refused.
    """
    _require_feasible(prob, 1e-9)
    b0 = prob.data.constant_term()
    if reg_eps is None:
        reg_eps = 1e-10 * (1.0 + operator_norm(b0))
    nrm = _inv_sqrt_psd(b0, reg_eps)
    p = prob.block_size
    normalized = {k: (codes, nrm @ c @ nrm) for k, (codes, c) in prob.data.blocks.items() if k}
    cf = cayley_inverse(FreeSeries._built(prob.n, prob.m, (p, p), normalized))
    if hinf_norm(cf, prob.m).value > 1.0 + 1e-9:
        raise ScopeError("inverse Cayley image has norm > 1 + 1e-9")
    return CFProblem(cf)


@dataclass
class CFReport:
    norm: float
    within: bool
    tol: float


def cf_check(prob):
    """Solvability criterion ||A_m|| <= 1 for the CF problem, with A_m the
    multi-analytic matrix [A_{a,b}] (block (a, b) is A_{a \\_l b} when
    a >=_l b): the right-translation sum sum_a A_a (x) (e_b -> e_{b a}),
    the commutant picture of multi-analytic operators.  The flip
    e_w -> e_{reverse(w)} carries it to f(S^(m)) for the word-reversed
    series, whose norm multianalytic.hinf_norm gives: the dense SVD up to
    NORM_DENSE_DIM, certified_norm above."""
    nrm = hinf_norm(prob.data.reversed(), prob.m).value
    return CFReport(nrm, nrm <= 1.0 + 1e-9, 1e-9)


def cf_to_caratheodory(prob):
    """Lift CF data to a feasible Caratheodory problem at degree m + 1:
    the forward Cayley transform of the series sum_a A_a Z_{g1 a}, with
    b_0 = I."""
    report = cf_check(prob)
    if not report.within:
        raise InfeasibleError(f"CF norm {report.norm:.6f} exceeds 1")
    # code(g1 a) = code(a): degree k of the data is degree k + 1 of the shift
    shifted = {k + 1: block for k, block in prob.data.blocks.items()}
    p = prob.block_size
    g = cayley_forward(FreeSeries._built(prob.n, prob.m + 1, (p, p), shifted))
    return CaratheodoryProblem(g + FreeSeries.one(prob.n, prob.m + 1, p))


# Every check of verify_solution holds to this absolute tolerance.
VERIFY_TOL = 1e-8

# Complex entries charged each sample beyond its letters' n (M + 1)^2 and
# what word_sum holds for it: 6032 / 22016 / 31536 / 85680 B a sample at
# (n, M) = (1, 3) / (2, 7) / (2, 8) / (2, 10), p = 1, above verify_solution's
# tracemalloc peaks there (1314 / 12182 / 21704 / 75950 B)
SAMPLE_ENTRIES = 320


@dataclass
class VerificationReport:
    passed: bool
    checks: dict  # name -> (ok, value)


def verify_solution(prob, ext, samples=20, seed=0):
    """Independent certificate of an extension: exact reproduction of the
    prescribed coefficients, positivity of T_M, positivity of Re g at
    random jointly nilpotent tuples (g has constant b_0 / 2), and the
    per-degree coefficient bound against ||b_0||.

    T_M's positivity is the one extend computed for this same series
    object, when that record decides it at VERIFY_TOL; any other series,
    such as a corrupted copy under the original certificate, is computed
    fresh.
    The samples are fock.random_nilpotent_stack's from the package's one
    sample stream fock.SplitMix64(seed), each sample's row norm uniform in
    [0.2, 0.95]; then g (the extension's blocks and b_0 / 2) is one
    fock.word_sum over all of them, each g the same bits as alone.  Before
    the first draw the samples are charged n ((M + 1)^2 + SAMPLE_ENTRIES)
    entries each and what word_sum will hold for them (word_sum_entries,
    whose sums also meet its side check), so it refuses no count drawn."""
    if samples < 1:
        raise InputError(f"sample count {samples} must be at least 1")
    f = ext.series
    n, p, q = prob.n, prob.block_size, f.cutoff + 1  # tuples of order M + 1
    b0 = prob.data.constant_term()
    terms = {**f.blocks, 0: (np.zeros(1, np.int64), b0[None] / 2.0)}
    held = sum(word_sum_entries(n, samples, q, p, [terms], 1)[:2])
    check_entries(samples * n * (q**2 + SAMPLE_ENTRIES) + held, "verification samples")
    checks = {}

    dev = _prescribed_error(prob, f)
    checks["prescribed_exact"] = (dev == 0.0, dev)

    source, tm = ext.tm or (None, None)
    ok = tm.verdict(VERIFY_TOL) if source is f else None
    if ok is None:
        tm = tm_positivity(f, VERIFY_TOL)
        ok = tm.verdict(VERIFY_TOL)
    checks["extension_psd"] = (ok, tm.min_eig)

    xs = random_nilpotent_stack(SplitMix64(seed), n, q, samples, (0.2, 0.95))
    g = word_sum(xs, p, [terms])[0]
    worst = float(np.linalg.eigvalsh((g + g.conj().swapaxes(1, 2)) / 2.0).min())
    checks["nilpotent_positive"] = (worst >= -VERIFY_TOL, worst)

    slices = (f.degree_slice_norm(k) for k in range(1, q))
    worst_slice = max(slices, default=0.0)
    checks["coefficient_bound"] = (worst_slice <= operator_norm(b0) + VERIFY_TOL, worst_slice)

    return VerificationReport(all(ok for ok, _ in checks.values()), checks)


def moment_problem_view(prob):
    """The trigonometric moment data of a scalar problem: the functional
    with mu(R_~a) = conj(b_a), mu(R_~a*) = b_a, mu(I) = b_0; bookkeeping
    only, nothing is solved."""
    if prob.block_size != 1:
        raise InputError("moment view is defined for scalar problems only")
    return MomentFunctional(PluriharmonicFn(prob.data, prob.data.without_constant().adjoint()))
