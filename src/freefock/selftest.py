"""Acceptance suites: executable statements of the package's contract.

Each suite returns (passed, detail).  The CLI selftest command runs them
with timing; tests/test_acceptance.py runs the same functions under
pytest.  Tolerances are fixed here, not configurable: they are the
contract.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import caratheodory as cara
from . import pluriharmonic as ph
from . import series as fs
from . import transforms as tr
from .fock import (
    OperatorTuple,
    apply_berezin_factor,
    apply_pluriharmonic_poisson,
    get_trunc,
    poisson_kernel,
    poisson_transform,
    poisson_transform_word_symbol,
    random_nilpotent_tuple,
    tail_bound,
)
from .linalg import adjoint, operator_norm
from .words import GradedBasis


def _max_abs(a):
    return float(np.max(np.abs(a))) if a.size else 0.0


def _series_gap(f, g):
    """Largest entrywise |f_w - g_w| over all words (absent ones are zero)."""
    return max((_max_abs(c) for _, c in (f - g).blocks.values()), default=0.0)


def _random_vector(rng, ft, max_degree):
    hi = ft.basis.degree_slice(max_degree)[1]
    v = np.zeros(ft.dim, dtype=complex)
    v[:hi] = rng.standard_normal(hi) + 1j * rng.standard_normal(hi)
    return v / np.linalg.norm(v)


def _positive_functional(rng, n, deg, cutoff=None, pairs=2):
    """Random positive vector-state functional with full moment support."""
    cutoff = deg if cutoff is None else cutoff
    ft = get_trunc(n, deg + cutoff)
    data = [
        (float(rng.uniform(0.3, 1.5)), _random_vector(rng, ft, deg), None)
        for _ in range(pairs)
    ]
    data = [(w, xi, xi) for w, xi, _ in data]
    return tr.from_vector_states(ft, data, cutoff)


# -- suites -------------------------------------------------------------------


def suite_creation_algebra(rng):
    """S_i* S_j = d_ij Q_(N-1) and S_i R_j = R_j S_i, entrywise <= 1e-13."""
    worst = 0.0
    for n in (1, 2, 3):
        for N in (1, 2, 3, 4):
            ft = get_trunc(n, N)
            q = ft.degree_projection(N - 1) if N >= 1 else np.zeros((1, 1))
            for i in range(1, n + 1):
                si = ft.left_creation(i)
                for j in range(1, n + 1):
                    sj = ft.left_creation(j)
                    rj = ft.right_creation(j)
                    target = q if i == j else np.zeros_like(q)
                    worst = max(worst, _max_abs(adjoint(si) @ sj - target))
                    worst = max(worst, _max_abs(si @ rj - rj @ si))
    return worst <= 1e-13, f"max entrywise deviation {worst:.2e}"


def suite_cayley_bijection(rng):
    """Series round-trip <= 1e-10; truncated-operator round-trip <= 1e-12;
    intertwining with evaluation at compressed creations <= 1e-10."""
    sizes = [(1, 3), (1, 6), (2, 2), (2, 4), (2, 6), (3, 2), (3, 4), (3, 6)]
    worst_series = 0.0
    for k in range(200):
        n, cutoff = sizes[k % len(sizes)]
        p = 1 + (k % 2)
        f = fs.random_series(rng, n, cutoff, (p, p), scale=0.4, min_degree=1)
        back = fs.cayley_inverse(fs.cayley_forward(f))
        fwd = fs.cayley_forward(fs.cayley_inverse(f))
        worst_series = max(worst_series, _series_gap(back, f), _series_gap(fwd, f))

    worst_op = 0.0
    worst_twine = 0.0
    for k in range(24):
        n = 1 + k % 3
        m = 1 + k % 4
        p = 1 + k % 2
        ft = get_trunc(n, m)
        f = fs.random_series(rng, n, m, (p, p), scale=0.3, min_degree=1)
        y = fs.eval_at_creation(f, m)
        rt = fs.truncated_cayley(fs.truncated_cayley(y, "forward", ft), "inverse", ft)
        worst_op = max(worst_op, _max_abs(rt - y))
        rt2 = fs.truncated_cayley(fs.truncated_cayley(y, "inverse", ft), "forward", ft)
        worst_op = max(worst_op, _max_abs(rt2 - y))

        nm = fs.hinf_norm_lower(f, m)
        if nm > 0:
            f = f.scale(0.9 / nm)
        lhs = fs.truncated_cayley(fs.eval_at_creation(f, m), "forward", ft)
        rhs = fs.eval_at_creation(fs.cayley_forward(f), m)
        worst_twine = max(worst_twine, _max_abs(lhs - rhs))

    ok = worst_series <= 1e-10 and worst_op <= 1e-12 and worst_twine <= 1e-10
    return ok, (
        f"series {worst_series:.2e}, operator {worst_op:.2e}, intertwine {worst_twine:.2e}"
    )


def suite_cayley_coefficient_oracle(rng):
    """Composition-sum coefficients equal the computed Cayley transform
    <= 1e-12 on 100 random polynomials of degree <= 5."""
    worst = 0.0
    for k in range(100):
        n = 1 + k % 3
        deg = 2 + k % 4
        p = 1 + k % 2
        f = fs.random_series(rng, n, deg, (p, p), scale=0.5, min_degree=1)
        g = fs.cayley_forward(f)
        for w, c in fs.cayley_composition_coefficient(f, deg).items():
            worst = max(worst, _max_abs(c - g.coefficient(w)))
    return worst <= 1e-12, f"max coefficient deviation {worst:.2e}"


def suite_poisson_factorization(rng):
    """K_X* K_X = I and P(R^(N), X) = B_X* B_X at N = 8: exact (1e-11)
    for nilpotent tuples on the truncation-exact zone, within
    5 tail_bound(r, N) for norm-r tuples on kernel-column probes."""
    N = 8
    worst_iso = 0.0
    worst_fact = 0.0
    for k in range(100):
        n = 1 + k % 3
        dim = 2 + k % 5
        ft = get_trunc(n, N)
        X = random_nilpotent_tuple(rng, n, dim, row_norm=float(rng.uniform(0.3, 0.95)))
        K = poisson_kernel(ft, X)
        worst_iso = max(worst_iso, _max_abs(adjoint(K) @ K - np.eye(dim)))
        # probes supported where truncation cannot bite: degree <= N - dim
        hi = ft.basis.degree_slice(N - dim)[1]
        v = np.zeros((ft.dim, dim), dtype=complex)
        v[:hi] = rng.standard_normal((hi, dim)) + 1j * rng.standard_normal((hi, dim))
        v /= np.linalg.norm(v)
        diff = apply_pluriharmonic_poisson(ft, X, v) - apply_berezin_factor(ft, X, v)
        worst_fact = max(worst_fact, float(np.linalg.norm(diff)))
    ok = worst_iso <= 1e-11 and worst_fact <= 1e-11

    worst_ratio = 0.0
    for k in range(20):
        n = 1 + k % 3
        dim = 2 + k % 5
        r = float(rng.uniform(0.3, 0.6))
        ft = get_trunc(n, N)
        mats = [
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            for _ in range(n)
        ]
        X = OperatorTuple(tuple(mats))
        X = X.scale(r / X.row_norm)
        v = np.zeros((ft.dim, dim), dtype=complex)
        v[0] = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        diff = apply_pluriharmonic_poisson(ft, X, v) - apply_berezin_factor(ft, X, v)
        worst_ratio = max(
            worst_ratio, float(np.linalg.norm(diff)) / (5.0 * tail_bound(r, N))
        )
    ok = ok and worst_ratio <= 1.0
    return ok, (
        f"isometry {worst_iso:.2e}, nilpotent factorization {worst_fact:.2e}, "
        f"norm-r discrepancy at {worst_ratio:.3f} of allowance"
    )


def suite_poisson_transform_identities(rng):
    """P_0[F] = <F e_0, e_0> I and P_X(S_a S_b*) = X_a X_b* (<= 1e-11)."""
    worst_zero = 0.0
    ft4 = get_trunc(2, 4)
    for _ in range(5):
        F = rng.standard_normal((ft4.dim, ft4.dim)) + 1j * rng.standard_normal(
            (ft4.dim, ft4.dim)
        )
        X0 = OperatorTuple((np.zeros((3, 3)), np.zeros((3, 3))))
        got = poisson_transform(ft4, F, X0)
        worst_zero = max(worst_zero, _max_abs(got - F[0, 0] * np.eye(3)))

    worst_ssxx = 0.0
    N = 8
    for n in (1, 2, 3):
        ft = get_trunc(n, N)
        dim = 4 if n == 3 else 6
        X = random_nilpotent_tuple(rng, n, dim, row_norm=0.9)
        K = poisson_kernel(ft, X)
        words = [w for w in GradedBasis(n, 3).words]
        for a in words:
            for b in words:
                got = poisson_transform_word_symbol(ft, a, b, X, kernel=K)
                want = X.word(a) @ adjoint(X.word(b))
                worst_ssxx = max(worst_ssxx, _max_abs(got - want))
    ok = worst_zero <= 1e-11 and worst_ssxx <= 1e-11
    return ok, f"P_0 deviation {worst_zero:.2e}, SSXX deviation {worst_ssxx:.2e}"


def suite_mean_value(rng):
    """Two-sided Poisson mean value agreement <= 1e-9, 50 samples."""
    failures = 0
    worst = 0.0
    for k in range(50):
        n = 1 + k % 3
        # keep p * dim(P^(N)) * dim modest; n = 3 grows fastest
        cutoff = 1 if n == 3 else 1 + k % 3
        p = 1 + k % 2
        dim = 2 if n == 3 else 2 + k % 3
        f = fs.random_series(rng, n, cutoff, (p, p), scale=0.7)
        h = ph.real_part(f)
        X = random_nilpotent_tuple(rng, n, dim, row_norm=float(rng.uniform(0.1, 0.8)))
        N = dim + cutoff
        rep = ph.mean_value_check(h, X, 0.9, N)
        worst = max(worst, rep.deviation / rep.allowance)
        failures += 0 if rep.passed else 1
    return failures == 0, f"{failures} failures, worst deviation at {worst:.3f} of allowance"


def suite_harnack_and_coefficients(rng):
    """Positive h = P mu: positivity to m = 4, Harnack bound at
    r in {0.25, 0.5}, coefficient bounds at 1e-9."""
    failures = []
    for k in range(50):
        n = 1 + k % 2
        deg = 1 + k % 2
        mu = _positive_functional(rng, n, deg, pairs=2)
        h = tr.poisson_pluriharmonic(mu)
        if not ph.check_positive(h, 4, 1e-9).passed:
            failures.append("positivity")
        for r in (0.25, 0.5):
            samples = [
                random_nilpotent_tuple(rng, n, 3, row_norm=r * float(rng.uniform(0.5, 1.0)))
                for _ in range(3)
            ]
            if not ph.harnack_check(h, samples, r, tol=1e-9).passed:
                failures.append(f"harnack r={r}")
        if not ph.coefficient_bound_check(h, tol=1e-9).passed:
            failures.append("coefficient bound")
    return not failures, f"{len(failures)} failures" + (
        f" ({failures[0]}, ...)" if failures else ""
    )


def suite_fejer(rng):
    """Sharpness of the cosine bound at the two-point state, and the bound
    itself on 50 random states (tol 1e-10)."""
    ft = get_trunc(1, 2)
    xi = np.zeros(ft.dim, dtype=complex)
    xi[0] = xi[1] = 1.0 / math.sqrt(2.0)
    mu = tr.from_vector_states(ft, [(1.0, xi, xi)], 1)
    rep = tr.fejer_check(mu, 2, tol=1e-10)
    lhs = rep.rows[0][1]
    sharp = abs(lhs - 0.5) <= 1e-12 and rep.passed

    failures = 0
    for k in range(50):
        n = 1 + k % 2
        m = 2 + k % 3
        ft = get_trunc(n, 2 * (m - 1))
        pairs = [(1.0, _random_vector(rng, ft, m - 1), None)]
        pairs = [(w, v, v) for w, v, _ in pairs]
        mu = tr.from_vector_states(ft, pairs, m - 1)
        if not tr.fejer_check(mu, m, tol=1e-10).passed:
            failures += 1
    return sharp and failures == 0, (
        f"sharpness |mu(R_1)| = {lhs:.12f}, {failures} bound failures"
    )


def suite_feasibility_oracle(rng):
    """n = 1 verdicts match the classical Toeplitz PSD test on 500 random
    instances; fixed fixtures hit their eigenvalues."""
    mismatches = 0
    for k in range(500):
        m = 1 + k % 5
        b0 = float(rng.uniform(0.2, 2.0))
        coeffs = {(): np.array([[b0]], dtype=complex)}
        for j in range(1, m + 1):
            z = complex(rng.normal(0, 0.6), rng.normal(0, 0.6))
            coeffs[(1,) * j] = np.array([[z]])
        prob = cara.CaratheodoryProblem(fs.FreeSeries(1, m, (1, 1), coeffs))
        verdict = cara.check_feasibility(prob, tol=1e-9).feasible
        # classical oracle: the (m+1) x (m+1) Hermitian Toeplitz matrix
        t = np.zeros((m + 1, m + 1), dtype=complex)
        for i in range(m + 1):
            for j in range(m + 1):
                if i == j:
                    t[i, j] = b0
                elif i > j:
                    t[i, j] = complex(coeffs[(1,) * (i - j)][0, 0])
                else:
                    t[i, j] = np.conj(complex(coeffs[(1,) * (j - i)][0, 0]))
        classical = float(np.linalg.eigvalsh(t)[0]) >= -1e-9
        mismatches += verdict != classical

    fx1 = cara.check_feasibility(
        cara.CaratheodoryProblem(fs.FreeSeries(1, 1, (1, 1), {(): [[2.0]], (1,): [[1.0]]}))
    )
    fx2 = cara.check_feasibility(
        cara.CaratheodoryProblem(fs.FreeSeries(1, 1, (1, 1), {(): [[2.0]], (1,): [[3.0]]}))
    )
    fx3 = cara.check_feasibility(cara.CaratheodoryProblem(
        fs.FreeSeries(2, 1, (1, 1), {(): [[1.0]], (1,): [[0.5]], (2,): [[0.5]]})
    ))
    fixtures = (
        fx1.feasible
        and abs(fx1.min_eig - 1.0) <= 1e-10
        and not fx2.feasible
        and abs(fx2.min_eig + 1.0) <= 1e-10
        and fx3.feasible
        and abs(fx3.min_eig - (1.0 - 0.5 * math.sqrt(2.0))) <= 1e-10
    )
    return mismatches == 0 and fixtures, (
        f"{mismatches} oracle mismatches, fixtures {'ok' if fixtures else 'FAILED'}"
    )


def _chain_vector(rng, ft, deg):
    """Near-extremal state: mass along the powers of a short word, plus a
    little noise.  Shifted copies of such a vector overlap strongly, so
    its moments sit close to the positivity boundary."""
    step = min(deg, int(rng.integers(1, 3)))
    u = tuple(int(rng.integers(1, ft.n + 1)) for _ in range(step))
    v = np.zeros(ft.dim, dtype=complex)
    w = ()
    while len(w) <= deg:
        v[ft.basis.index[w]] = rng.uniform(0.6, 1.0) * np.exp(
            1j * rng.normal(0.0, 0.25)
        )
        w = w + u
    hi = ft.basis.degree_slice(deg)[1]
    noise = rng.standard_normal(hi) + 1j * rng.standard_normal(hi)
    v[:hi] += 0.2 * noise / np.linalg.norm(noise)
    return v / np.linalg.norm(v)


def generate_feasible_problem(rng, n, m, margin=0.02):
    """Scalar feasible instance: moments of a positive vector-state
    functional truncated at length m, with a small b_0 boost.

    The vectors reach degree m + 2, so the data genuinely truncates the
    functional: extending by zeros is usually infeasible, but the
    functional's own deeper moments certify feasibility, which makes the
    completion problem nontrivial for the solver."""
    deg = m + 2
    ft = get_trunc(n, deg + m)
    # one near-extremal chain state, one weak spread state: the data sits
    # close to the boundary without being exactly singular
    pairs = [
        (1.0, _chain_vector(rng, ft, deg)),
        (0.1, _random_vector(rng, ft, deg)),
    ]
    mu = tr.from_vector_states(ft, [(w, v, v) for w, v in pairs], m)
    a = tr.poisson_pluriharmonic(mu).analytic
    a0 = a.constant_term()
    coeffs = {(): a0 + margin * operator_norm(a0) * np.eye(1)}
    coeffs.update((w, c) for w, c in a.coeffs.items() if w)
    return cara.CaratheodoryProblem(fs.FreeSeries(n, m, (1, 1), coeffs))


def suite_extension_solver(rng):
    """30 feasible instances extended to M = m + 2 with exact prescribed
    data, fresh PSD certificate, and verified nilpotent positivity."""
    failures = []
    for k in range(30):
        n = 1 + k % 2
        m = 1 + k % 2
        prob = generate_feasible_problem(rng, n, m)
        try:
            ext = cara.extend(prob, m + 2, tol=1e-9)
        except cara.InfeasibleError as exc:  # pragma: no cover
            failures.append(f"solver: {exc}")
            continue
        cert = ext.certificate
        if cert["prescribed_error"] != 0.0:
            failures.append("prescribed data perturbed")
        if cert["min_eig_tm"] < -1e-8:
            failures.append(f"certificate min eig {cert['min_eig_tm']:.2e}")
        rep = cara.verify_solution(prob, ext, samples=20, seed=int(rng.integers(1 << 31)))
        if not rep.passed:
            bad = [name for name, (ok, _) in rep.checks.items() if not ok]
            failures.append(f"verification: {bad}")
    return not failures, f"{len(failures)} failures"


def suite_reduction_roundtrip(rng):
    """cayley_route after cf_to_caratheodory recovers the g_1-shifted CF
    data <= 1e-10 on 30 contractive instances."""
    worst = 0.0
    for k in range(30):
        n = 1 + k % 2
        m = 1 + k % 2
        p = 1 + k % 2
        coeffs = {}
        for w in GradedBasis(n, m).words:
            coeffs[w] = 0.3 * (rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)))
        nrm = cara.cf_check(cara.CFProblem(fs.FreeSeries(n, m, (p, p), coeffs))).norm
        scaled = {w: (0.9 * float(rng.uniform(0.5, 1.0)) / nrm) * c for w, c in coeffs.items()}
        a = fs.FreeSeries(n, m, (p, p), scaled)
        back = cara.cayley_route(cara.cf_to_caratheodory(cara.CFProblem(a)), reg_eps=0.0).data
        for w in GradedBasis(n, m).words:
            worst = max(worst, _max_abs(back.coefficient((1,) + w) - a.coefficient(w)))
        for w in back.coeffs:
            if not w or w[0] != 1:
                worst = max(worst, _max_abs(back.coefficient(w)))
    return worst <= 1e-10, f"max recovered-coefficient deviation {worst:.2e}"


def suite_positivity_equivalences(rng):
    """The three positivity predicates agree: all true on Herglotz
    transforms of positive states, all false on indefinite data."""
    grid = [0.3, 0.7, 0.95]
    disagreements = 0
    not_positive = 0
    for k in range(50):
        n = 1 + k % 2
        deg = 1 + k % 2
        mu = _positive_functional(rng, n, deg, pairs=2)
        a = mu.symbol.analytic
        f = a + a.without_constant()  # the Herglotz symbol A_0 + 2 sum A_a
        rep = tr.positivity_equivalence_check(f, m_max=3, r_grid=grid, tol=1e-8)
        disagreements += not rep.agree
        not_positive += not rep.all_positive

    not_negative = 0
    for k in range(50):
        n = 1 + k % 2
        deg = 1 + k % 2
        f = fs.random_series(rng, n, deg, (1, 1), scale=1.0, min_degree=1)
        f = f + fs.FreeSeries(n, deg, (1, 1), {(): [[1j * rng.standard_normal()]]})  # Re f(0) = 0
        rep = tr.positivity_equivalence_check(f, m_max=3, r_grid=grid, tol=1e-8)
        disagreements += not rep.agree
        not_negative += rep.all_positive
    ok = disagreements == 0 and not_positive == 0 and not_negative == 0
    return ok, (
        f"{disagreements} disagreements, {not_positive} positive misses, "
        f"{not_negative} indefinite misses"
    )


def suite_canary(rng):
    """A corrupted extension must fail verification; guards against a
    build whose checks silently pass everything."""
    prob = cara.CaratheodoryProblem(fs.FreeSeries(1, 1, (1, 1), {(): [[1.0]], (1,): [[0.4]]}))
    ext = cara.extend(prob, 3)
    good = cara.verify_solution(prob, ext, samples=10, seed=7)
    corrupted = fs.FreeSeries(1, 3, (1, 1), {**ext.series.coeffs, (1, 1, 1): [[1.0]]})
    bad = cara.verify_solution(
        prob, cara.ExtensionResult(corrupted, dict(ext.certificate)), samples=10, seed=7
    )
    ok = good.passed and not bad.passed
    return ok, "corruption detected" if ok else "CORRUPTION NOT DETECTED"


SUITES = [
    ("creation_algebra", suite_creation_algebra),
    ("cayley_bijection", suite_cayley_bijection),
    ("cayley_coefficient_oracle", suite_cayley_coefficient_oracle),
    ("poisson_factorization", suite_poisson_factorization),
    ("poisson_transform_identities", suite_poisson_transform_identities),
    ("mean_value", suite_mean_value),
    ("harnack_and_coefficients", suite_harnack_and_coefficients),
    ("fejer", suite_fejer),
    ("feasibility_oracle", suite_feasibility_oracle),
    ("extension_solver", suite_extension_solver),
    ("reduction_roundtrip", suite_reduction_roundtrip),
    ("positivity_equivalences", suite_positivity_equivalences),
    ("canary", suite_canary),
]


def run_suite(name, seed=20240901):
    fn = dict(SUITES)[name]
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    passed, detail = fn(rng)
    return passed, detail, time.perf_counter() - start


def run_all(seed=20240901, report=print):
    ok = True
    for name, _ in SUITES:
        passed, detail, elapsed = run_suite(name, seed)
        ok = ok and passed
        report(f"{'PASS' if passed else 'FAIL'} {name} ({elapsed:.2f}s): {detail}")
    return ok
