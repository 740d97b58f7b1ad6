import math

import numpy as np
import pytest

from freefock import caratheodory as cara
from freefock import transforms as tr
from freefock.errors import InfeasibleError, InputError
from freefock.fock import get_trunc, random_nilpotent_tuple
from freefock.linalg import adjoint, kron
from freefock.series import FreeSeries, extract_coeffs
from freefock.toeplitz import assemble_T
from freefock.words import GradedBasis

ONE = np.array([[1.0]])


def series(n, m, coeffs):
    """FreeSeries with the shape of the first coefficient."""
    return FreeSeries(n, m, np.shape(next(iter(coeffs.values()))), coeffs)


def problem(n, m, coeffs):
    return cara.CaratheodoryProblem(series(n, m, coeffs))


def scalar_problem(n, m, mapping):
    return problem(n, m, {w: np.array([[c]]) for w, c in mapping.items()})


def test_problem_validation():
    with pytest.raises(InputError):
        scalar_problem(1, 1, {(1,): 1.0})  # b_0 missing
    with pytest.raises(InputError):
        scalar_problem(1, 1, {(): 0.0, (1,): 0.5})  # b_0 zero, so missing
    with pytest.raises(InputError):
        scalar_problem(1, 1, {(): -1.0, (1,): 0.0})  # b_0 not PSD
    with pytest.raises(InputError):
        problem(1, 1, {(): np.array([[1.0, 2.0], [0.0, 1.0]])})
    for make in (cara.CaratheodoryProblem, cara.CFProblem):
        with pytest.raises(InputError):
            make(FreeSeries(1, 1, (1, 2), {(): [[1.0, 0.0]]}))  # not square
    prob = scalar_problem(2, 3, {(): 1.0, (1, 2): 0.5})
    assert (prob.n, prob.m, prob.block_size) == (2, 3, 1)
    cf = cara.CFProblem(FreeSeries(3, 2, (2, 2)))
    assert (cf.n, cf.m, cf.block_size) == (3, 2, 2)


def test_check_feasibility_fixtures():
    rep = cara.check_feasibility(scalar_problem(1, 1, {(): 2.0, (1,): 1.0}))
    assert rep.feasible and rep.min_eig == pytest.approx(1.0, abs=1e-12)
    assert rep.matrix_dim == 2

    rep = cara.check_feasibility(scalar_problem(1, 1, {(): 2.0, (1,): 3.0}))
    assert not rep.feasible and rep.min_eig == pytest.approx(-1.0, abs=1e-12)

    rep = cara.check_feasibility(scalar_problem(2, 1, {(): 1.0, (1,): 0.5, (2,): 0.5}))
    assert rep.feasible
    assert rep.min_eig == pytest.approx(1.0 - 0.5 * math.sqrt(2.0), abs=1e-10)


def test_extend_trivial_data():
    b0 = np.diag([1.0, 0.25])
    prob = problem(1, 1, {(): b0})
    ext = cara.extend(prob, 3)
    assert ext.certificate["min_eig_tm"] == pytest.approx(0.25, abs=1e-9)
    for w, c in ext.series.coeffs.items():
        if w:
            assert np.max(np.abs(c)) <= 1e-9


def test_extend_classical_instance():
    prob = scalar_problem(1, 1, {(): 1.0, (1,): 0.5})
    # the geometric sequence certifies that completions exist at all
    classical = np.array(
        [
            [1.0, 0.5, 0.25, 0.125],
            [0.5, 1.0, 0.5, 0.25],
            [0.25, 0.5, 1.0, 0.5],
            [0.125, 0.25, 0.5, 1.0],
        ]
    )
    assert np.linalg.eigvalsh(classical)[0] >= 0.0
    ext = cara.extend(prob, 3)
    cert = ext.certificate
    assert cert["prescribed_error"] == 0.0
    assert cert["min_eig_tm"] >= -1e-8
    assert cara.verify_solution(prob, ext, samples=15, seed=0).passed


def test_extend_one_generator_maximum_entropy():
    # n = 1: the central extension of (1, c) is the classical
    # maximum-entropy one, b_{1^k} = c^k
    for c in (0.5, 0.9, 0.5 + 0.3j, -0.7j):
        prob = scalar_problem(1, 1, {(): 1.0, (1,): c})
        ext = cara.extend(prob, 6)
        for k in range(7):
            assert abs(ext.series.coefficient((1,) * k)[0, 0] - c**k) <= 1e-14
        assert ext.certificate["min_eig_tm"] >= -1e-8
        assert cara.verify_solution(prob, ext, samples=15, seed=1).passed


def test_extend_two_generator_product_extension():
    # scalar degree-1 data extend multiplicatively: b_w = c_{w_1} ... c_{w_k}
    c = {1: 0.3 + 0.2j, 2: -0.4}
    prob = scalar_problem(2, 1, {(): 1.0, (1,): c[1], (2,): c[2]})
    ext = cara.extend(prob, 4)
    assert set(ext.series.coeffs) == set(GradedBasis(2, 4).words)
    for w, b in ext.series.coeffs.items():
        assert abs(b[0, 0] - math.prod(c[i] for i in w)) <= 1e-15


def test_extend_two_generator_near_boundary():
    prob = scalar_problem(2, 1, {(): 1.0, (1,): 0.65, (2,): 0.65})
    assert cara.check_feasibility(prob).min_eig == pytest.approx(
        1.0 - 0.65 * math.sqrt(2.0), abs=1e-10
    )
    ext = cara.extend(prob, 3)
    cert = ext.certificate
    assert cert["min_eig_tm"] >= -1e-8 and cert["prescribed_error"] == 0.0
    assert cara.verify_solution(prob, ext, samples=15, seed=9).passed

    prob = scalar_problem(2, 1, {(): 1.0, (1,): 0.6, (2,): 0.6})
    ext = cara.extend(prob, 6)
    assert ext.certificate["prescribed_error"] == 0.0
    assert cara.verify_solution(prob, ext, samples=15, seed=9).passed


def test_extend_maximizes_determinant():
    rng = np.random.default_rng(10)
    block = {(): np.eye(2)}
    for w in ((1,), (2,)):
        block[w] = 0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    for prob in (
        scalar_problem(2, 1, {(): 1.0, (1,): 0.65, (2,): 0.65}),
        problem(2, 1, block),
    ):
        p = prob.block_size
        ext = cara.extend(prob, 3)
        best = np.linalg.slogdet(assemble_T(ext.series).entries)[1]
        free = [w for w in ext.series.coeffs if len(w) >= 2]
        compared = 0
        for scale in (1e-4, 1e-2, 1e-1):
            for _ in range(50):
                other = dict(ext.series.coeffs)
                for w in free:
                    noise = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
                    other[w] = other[w] + scale * noise
                t = assemble_T(series(2, 3, other)).entries
                if np.linalg.eigvalsh(t)[0] <= 0.0:
                    continue
                compared += 1
                assert np.linalg.slogdet(t)[1] < best
        assert compared >= 100


def test_extend_boundary_data():
    # T_1 singular: (1, 1) at n = 1, and b = 1/sqrt(2) at n = 2
    prob = scalar_problem(1, 1, {(): 1.0, (1,): 1.0})
    ext = cara.extend(prob, 4)
    for k in range(5):
        assert abs(ext.series.coefficient((1,) * k)[0, 0] - 1.0) <= 1e-14
    assert cara.verify_solution(prob, ext, samples=15, seed=2).passed
    b = 1.0 / math.sqrt(2.0)
    prob = scalar_problem(2, 1, {(): 1.0, (1,): b, (2,): b})
    assert cara.verify_solution(prob, cara.extend(prob, 4), samples=15, seed=2).passed


def test_extend_singular_b0():
    # p = 2 with b_0 = diag(1, 0): the second coordinate carries nothing
    prob = problem(
        2, 1, {(): np.diag([1.0, 0.0]), (1,): np.diag([0.5, 0.0]), (2,): np.diag([0.3j, 0.0])}
    )
    ext = cara.extend(prob, 3)
    assert ext.certificate["min_eig_tm"] >= -1e-12
    assert cara.verify_solution(prob, ext, samples=15, seed=3).passed
    for w, c in ext.series.coeffs.items():
        assert not c[1].any() and not c[:, 1].any()


def test_extend_nests_across_target_degree():
    rng = np.random.default_rng(11)
    coeffs = {(): np.eye(2)}
    for w in GradedBasis(2, 2).words[1:]:
        coeffs[w] = 0.15 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    prob = problem(2, 2, coeffs)
    assert cara.check_feasibility(prob).feasible
    low = cara.extend(prob, 3).series.coeffs
    high = cara.extend(prob, 5).series.coeffs
    assert set(low) == {w for w in high if len(w) <= 3}
    for w, c in low.items():
        assert np.array_equal(high[w], c)


def test_extend_preserves_prescribed_bitwise():
    prob = scalar_problem(2, 1, {(): 1.0, (1,): 0.3 + 0.2j, (2,): -0.4})
    ext = cara.extend(prob, 3)
    for w in GradedBasis(2, 1).words:
        assert np.array_equal(ext.series.coefficient(w), prob.data.coefficient(w))


def test_extend_feasibility_nesting():
    prob = scalar_problem(1, 1, {(): 1.0, (1,): 0.8})
    ext = cara.extend(prob, 4)
    # compression nesting: feasibility of the extension implies the data's
    for m in (1, 2, 3, 4):
        coeffs = {w: c for w, c in ext.series.coeffs.items() if len(w) <= m}
        assert assemble_T(series(1, m, coeffs)).min_eig() >= ext.certificate["min_eig_tm"] - 1e-12


def test_extend_from_degree_zero():
    # m = 0: b_0 alone, whose central extension is zero in every degree,
    # degree 1 included
    prob = problem(2, 0, {(): np.diag([2.0, 0.5])})
    for M in (1, 3):
        ext = cara.extend(prob, M)
        assert ext.series.cutoff == M and ext.series.max_degree() == 0
        assert ext.certificate["prescribed_error"] == 0.0
        assert ext.certificate["min_eig_tm"] == pytest.approx(0.5, abs=1e-12)
        assert cara.verify_solution(prob, ext, samples=5, seed=8).passed
    # a subnormal b_0: the pseudo-inverse drops it instead of overflowing
    tiny = problem(3, 0, {(): 5e-324 * np.eye(2)})
    ext = cara.extend(tiny, 3)
    assert ext.series.max_degree() == 0
    assert cara.verify_solution(tiny, ext, samples=5, seed=8).passed


def test_extend_infeasible_raises():
    prob = scalar_problem(1, 1, {(): 2.0, (1,): 3.0})
    with pytest.raises(InfeasibleError):
        cara.extend(prob, 3)


def test_cayley_route_trivial_and_degree_one():
    prob = problem(1, 1, {(): np.eye(2)})
    cf = cara.cayley_route(prob, reg_eps=0.0)
    assert not cf.data.coeffs

    b1 = np.array([[0.2, 0.1], [0.0, 0.3]])
    prob = problem(1, 1, {(): np.eye(2), (1,): b1})
    cf = cara.cayley_route(prob, reg_eps=0.0)
    # m = 1: Y^2 = 0, the inverse Cayley transform is the identity
    assert np.max(np.abs(cf.data.coefficient((1,)) - b1)) <= 1e-12


def test_cayley_route_matrix_inverse_oracle():
    prob = scalar_problem(1, 2, {(): 1.0, (1,): 0.5, (1, 1): 0.25})
    cf = cara.cayley_route(prob, reg_eps=0.0)
    ft = get_trunc(1, 2)
    s1 = ft.left_creation(1)
    y = 0.5 * s1 + 0.25 * s1 @ s1
    oracle = y @ np.linalg.inv(np.eye(3) + y)
    analytic, _ = extract_coeffs(oracle, ft, 1)
    for w in ((1,), (1, 1)):
        want = analytic.get(w, np.zeros((1, 1)))
        assert np.max(np.abs(cf.data.coefficient(w) - want)) <= 1e-12


def test_cayley_route_contraction_property():
    rng = np.random.default_rng(2)
    for _ in range(10):
        coeffs = {(): np.eye(1)}
        for w in GradedBasis(2, 2).words:
            if w:
                coeffs[w] = 0.5 * (rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)))
        prob = problem(2, 2, coeffs)
        if not cara.check_feasibility(prob).feasible:
            continue
        cf = cara.cayley_route(prob)  # would raise if the image were expansive
        assert cara.cf_check(cf).norm <= 1.0 + 1e-6


def test_cf_check():
    prob = cara.CFProblem(series(2, 1, {(1,): np.zeros((1, 1)), (2,): np.zeros((1, 1))}))
    assert cara.cf_check(prob).norm == 0.0

    c = 0.37 - 0.2j
    prob = cara.CFProblem(series(1, 1, {(1,): np.array([[c]])}))
    assert cara.cf_check(prob).norm == pytest.approx(abs(c), rel=1e-12)

    prob = cara.CFProblem(series(1, 2, {(1,): 0.5 * ONE, (1, 1): 0.25 * ONE}))
    rep = cara.cf_check(prob)
    oracle = np.array([[0, 0, 0], [0.5, 0, 0], [0.25, 0.5, 0]])
    assert rep.norm == pytest.approx(np.linalg.svd(oracle)[1][0], rel=1e-12)
    assert rep.within


def test_cf_to_caratheodory():
    prob = cara.CFProblem(series(2, 1, {(1,): np.zeros((1, 1))}))
    lifted = cara.cf_to_caratheodory(prob)
    assert np.allclose(lifted.data.coefficient(()), ONE)
    for w, c in lifted.data.coeffs.items():
        if w:
            assert not c.any()

    a = 0.6 + 0.3j
    prob = cara.CFProblem(series(1, 0, {(): np.array([[a]])}))
    lifted = cara.cf_to_caratheodory(prob)
    assert lifted.m == 1
    assert lifted.data.coefficient((1,))[0, 0] == pytest.approx(a)

    loud = cara.CFProblem(series(1, 1, {(1,): 2.0 * ONE}))
    with pytest.raises(InfeasibleError):
        cara.cf_to_caratheodory(loud)


def test_reduction_roundtrip_small():
    rng = np.random.default_rng(3)
    coeffs = {
        w: 0.2 * (rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)))
        for w in GradedBasis(2, 1).words
    }
    prob = cara.CFProblem(series(2, 1, coeffs))
    back = cara.cayley_route(cara.cf_to_caratheodory(prob), reg_eps=0.0).data
    for w in GradedBasis(2, 1).words:
        assert np.max(np.abs(back.coefficient((1,) + w) - prob.data.coefficient(w))) <= 1e-10
    for w in back.coeffs:
        if w[0] != 1:
            assert np.max(np.abs(back.coefficient(w))) <= 1e-12


def test_verify_solution_zero_extension():
    prob = problem(2, 1, {(): np.eye(2)})
    ext = cara.ExtensionResult(
        series(2, 3, {w: (np.eye(2) if not w else np.zeros((2, 2))) for w in GradedBasis(2, 3).words}),
        {},
    )
    assert cara.verify_solution(prob, ext, samples=5, seed=4).passed


def test_verify_solution_classical_geometric():
    prob = scalar_problem(1, 1, {(): 1.0, (1,): 0.5})
    ext = cara.ExtensionResult(series(1, 3, {(1,) * k: np.array([[0.5**k]]) for k in range(4)}), {})
    rep = cara.verify_solution(prob, ext, samples=20, seed=5)
    assert rep.passed


def test_verify_solution_catches_corruption():
    prob = scalar_problem(1, 1, {(): 1.0, (1,): 0.5})
    ext = cara.extend(prob, 3)
    bad = {w: c.copy() for w, c in ext.series.coeffs.items()}
    bad[(1, 1, 1)] = np.array([[-1.0]])  # magnitude-one flip at the top degree
    rep = cara.verify_solution(prob, cara.ExtensionResult(series(1, 3, bad), {}), samples=10, seed=6)
    assert not rep.passed
    assert not rep.checks["extension_psd"][0] or not rep.checks["nilpotent_positive"][0]

    # a prescribed coefficient moved by 1e-12, or dropped, is not reproduced exactly
    for moved in ({**ext.series.coeffs, (1,): ext.series.coefficient((1,)) + 1e-12},
                  {w: c for w, c in ext.series.coeffs.items() if w != (1,)}):
        rep = cara.verify_solution(prob, cara.ExtensionResult(series(1, 3, moved), {}), seed=6)
        ok, dev = rep.checks["prescribed_exact"]
        assert not ok and not rep.passed and 0.0 < dev <= 0.5


def test_moment_problem_view():
    prob = scalar_problem(1, 1, {(): 1.0, (1,): 1.0j})
    mu = cara.moment_problem_view(prob)
    assert mu.symbol.coanalytic.coeffs[(1,)][0, 0] == pytest.approx(-1.0j)  # conjugate of b_1
    assert mu.symbol.analytic.coeffs[(1,)][0, 0] == pytest.approx(1.0j)

    trivial = cara.moment_problem_view(scalar_problem(2, 1, {(): 1.0}))
    assert not trivial.symbol.coanalytic.coeffs and trivial.symbol.analytic.max_degree() == 0

    # P(view) at nilpotent samples reproduces b_0 (x) I + sum b_a (x) X_a + adjoint
    rng = np.random.default_rng(7)
    prob = scalar_problem(2, 2, {(): 1.0, (1,): 0.3, (1, 2): 0.1 - 0.2j})
    mu = cara.moment_problem_view(prob)
    x = random_nilpotent_tuple(rng, 2, 3, row_norm=0.8)
    got = tr.poisson_transform_of(mu, x)
    want = kron(prob.data.coefficient(()), np.eye(3))
    for w, c in prob.data.coeffs.items():
        if w:
            want = want + kron(c, x.word(w)) + kron(adjoint(c), adjoint(x.word(w)))
    assert np.max(np.abs(got - want)) <= 1e-12

    with pytest.raises(InputError):
        cara.moment_problem_view(problem(1, 1, {(): np.eye(2)}))
