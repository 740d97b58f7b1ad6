import math

import numpy as np
import pytest

from freefock import caratheodory as cara
from freefock import transforms as tr
from freefock.errors import InfeasibleError, InputError
from freefock.fock import get_trunc, random_nilpotent_tuple
from freefock.linalg import adjoint, kron
from freefock.series import extract_coeffs
from freefock.toeplitz import assemble_T
from freefock.words import GradedBasis

ONE = np.array([[1.0]])


def scalar_problem(n, m, mapping):
    return cara.CaratheodoryProblem(n, m, {w: np.array([[c]]) for w, c in mapping.items()})


def test_problem_validation():
    with pytest.raises(InputError):
        scalar_problem(1, 1, {(1,): 1.0})  # b_0 missing
    with pytest.raises(InputError):
        scalar_problem(1, 1, {(): -1.0, (1,): 0.0})  # b_0 not PSD
    with pytest.raises(InputError):
        cara.CaratheodoryProblem(1, 1, {(): np.array([[1.0, 2.0], [0.0, 1.0]])})


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
    prob = cara.CaratheodoryProblem(1, 1, {(): b0})
    ext = cara.extend(prob, 3)
    assert ext.certificate["min_eig_tm"] == pytest.approx(0.25, abs=1e-9)
    for w, c in ext.coeffs.items():
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
            assert abs(ext.coeffs[(1,) * k][0, 0] - c**k) <= 1e-14
        assert ext.certificate["min_eig_tm"] >= -1e-8
        assert cara.verify_solution(prob, ext, samples=15, seed=1).passed


def test_extend_two_generator_product_extension():
    # scalar degree-1 data extend multiplicatively: b_w = c_{w_1} ... c_{w_k}
    c = {1: 0.3 + 0.2j, 2: -0.4}
    prob = scalar_problem(2, 1, {(): 1.0, (1,): c[1], (2,): c[2]})
    ext = cara.extend(prob, 4)
    assert set(ext.coeffs) == set(GradedBasis(2, 4).words)
    for w, b in ext.coeffs.items():
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
        cara.CaratheodoryProblem(2, 1, block),
    ):
        p = prob.block_size
        ext = cara.extend(prob, 3)
        best = np.linalg.slogdet(assemble_T(ext.coeffs, 2, 3).entries)[1]
        free = [w for w in ext.coeffs if len(w) >= 2]
        compared = 0
        for scale in (1e-4, 1e-2, 1e-1):
            for _ in range(50):
                other = dict(ext.coeffs)
                for w in free:
                    noise = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
                    other[w] = other[w] + scale * noise
                t = assemble_T(other, 2, 3).entries
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
        assert abs(ext.coeffs[(1,) * k][0, 0] - 1.0) <= 1e-14
    assert cara.verify_solution(prob, ext, samples=15, seed=2).passed
    b = 1.0 / math.sqrt(2.0)
    prob = scalar_problem(2, 1, {(): 1.0, (1,): b, (2,): b})
    assert cara.verify_solution(prob, cara.extend(prob, 4), samples=15, seed=2).passed


def test_extend_singular_b0():
    # p = 2 with b_0 = diag(1, 0): the second coordinate carries nothing
    prob = cara.CaratheodoryProblem(
        2, 1, {(): np.diag([1.0, 0.0]), (1,): np.diag([0.5, 0.0]), (2,): np.diag([0.3j, 0.0])}
    )
    ext = cara.extend(prob, 3)
    assert ext.certificate["min_eig_tm"] >= -1e-12
    assert cara.verify_solution(prob, ext, samples=15, seed=3).passed
    for w, c in ext.coeffs.items():
        assert not c[1].any() and not c[:, 1].any()


def test_extend_nests_across_target_degree():
    rng = np.random.default_rng(11)
    coeffs = {(): np.eye(2)}
    for w in GradedBasis(2, 2).words[1:]:
        coeffs[w] = 0.15 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    prob = cara.CaratheodoryProblem(2, 2, coeffs)
    assert cara.check_feasibility(prob).feasible
    low = cara.extend(prob, 3)
    high = cara.extend(prob, 5)
    assert set(low.coeffs) == {w for w in high.coeffs if len(w) <= 3}
    for w, c in low.coeffs.items():
        assert np.array_equal(high.coeffs[w], c)


def test_extend_preserves_prescribed_bitwise():
    prob = scalar_problem(2, 1, {(): 1.0, (1,): 0.3 + 0.2j, (2,): -0.4})
    ext = cara.extend(prob, 3)
    for w in GradedBasis(2, 1).words:
        assert np.array_equal(ext.coeffs[w], prob.coefficient(w))


def test_extend_feasibility_nesting():
    prob = scalar_problem(1, 1, {(): 1.0, (1,): 0.8})
    ext = cara.extend(prob, 4)
    # compression nesting: feasibility of the extension implies the data's
    for m in (1, 2, 3, 4):
        coeffs = {w: c for w, c in ext.coeffs.items() if len(w) <= m}
        assert assemble_T(coeffs, 1, m).min_eig() >= ext.certificate["min_eig_tm"] - 1e-12


def test_extend_infeasible_raises():
    prob = scalar_problem(1, 1, {(): 2.0, (1,): 3.0})
    with pytest.raises(InfeasibleError):
        cara.extend(prob, 3)


def test_cayley_route_trivial_and_degree_one():
    prob = cara.CaratheodoryProblem(1, 1, {(): np.eye(2)})
    cf = cara.cayley_route(prob, reg_eps=0.0)
    assert not cf.coeffs

    b1 = np.array([[0.2, 0.1], [0.0, 0.3]])
    prob = cara.CaratheodoryProblem(1, 1, {(): np.eye(2), (1,): b1})
    cf = cara.cayley_route(prob, reg_eps=0.0)
    # m = 1: Y^2 = 0, the inverse Cayley transform is the identity
    assert np.max(np.abs(cf.coefficient((1,)) - b1)) <= 1e-12


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
        assert np.max(np.abs(cf.coefficient(w) - want)) <= 1e-12


def test_cayley_route_contraction_property():
    rng = np.random.default_rng(2)
    for _ in range(10):
        coeffs = {(): np.eye(1)}
        for w in GradedBasis(2, 2).words:
            if w:
                coeffs[w] = 0.5 * (rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)))
        prob = cara.CaratheodoryProblem(2, 2, coeffs)
        if not cara.check_feasibility(prob).feasible:
            continue
        cf = cara.cayley_route(prob)  # would raise if the image were expansive
        assert cara.cf_check(cf).norm <= 1.0 + 1e-6


def test_cf_check():
    prob = cara.CFProblem(2, 1, {(1,): np.zeros((1, 1)), (2,): np.zeros((1, 1))}, 1)
    assert cara.cf_check(prob).norm == 0.0

    c = 0.37 - 0.2j
    prob = cara.CFProblem(1, 1, {(1,): np.array([[c]])}, 1)
    assert cara.cf_check(prob).norm == pytest.approx(abs(c), rel=1e-12)

    prob = cara.CFProblem(1, 2, {(1,): 0.5 * ONE, (1, 1): 0.25 * ONE}, 1)
    rep = cara.cf_check(prob)
    oracle = np.array([[0, 0, 0], [0.5, 0, 0], [0.25, 0.5, 0]])
    assert rep.norm == pytest.approx(np.linalg.svd(oracle)[1][0], rel=1e-12)
    assert rep.within


def test_cf_to_caratheodory():
    prob = cara.CFProblem(2, 1, {(1,): np.zeros((1, 1))}, 1)
    lifted = cara.cf_to_caratheodory(prob)
    assert np.allclose(lifted.coefficient(()), ONE)
    for w, c in lifted.coeffs.items():
        if w:
            assert not c.any()

    a = 0.6 + 0.3j
    prob = cara.CFProblem(1, 0, {(): np.array([[a]])}, 1)
    lifted = cara.cf_to_caratheodory(prob)
    assert lifted.m == 1
    assert lifted.coefficient((1,))[0, 0] == pytest.approx(a)

    loud = cara.CFProblem(1, 1, {(1,): 2.0 * ONE}, 1)
    with pytest.raises(InfeasibleError):
        cara.cf_to_caratheodory(loud)


def test_reduction_roundtrip_small():
    rng = np.random.default_rng(3)
    coeffs = {
        w: 0.2 * (rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)))
        for w in GradedBasis(2, 1).words
    }
    prob = cara.CFProblem(2, 1, coeffs, 1)
    back = cara.cayley_route(cara.cf_to_caratheodory(prob), reg_eps=0.0)
    for w in GradedBasis(2, 1).words:
        assert np.max(np.abs(back.coefficient((1,) + w) - prob.coefficient(w))) <= 1e-10
    for w in back.coeffs:
        if w[0] != 1:
            assert np.max(np.abs(back.coefficient(w))) <= 1e-12


def test_verify_solution_zero_extension():
    prob = cara.CaratheodoryProblem(2, 1, {(): np.eye(2)})
    ext = cara.ExtensionResult(
        3, {w: (np.eye(2) if not w else np.zeros((2, 2))) for w in GradedBasis(2, 3).words}, {}
    )
    assert cara.verify_solution(prob, ext, samples=5, seed=4).passed


def test_verify_solution_classical_geometric():
    prob = scalar_problem(1, 1, {(): 1.0, (1,): 0.5})
    ext = cara.ExtensionResult(
        3, {(1,) * k: np.array([[0.5**k]]) for k in range(4)}, {}
    )
    rep = cara.verify_solution(prob, ext, samples=20, seed=5)
    assert rep.passed


def test_verify_solution_catches_corruption():
    prob = scalar_problem(1, 1, {(): 1.0, (1,): 0.5})
    ext = cara.extend(prob, 3)
    bad = {w: c.copy() for w, c in ext.coeffs.items()}
    bad[(1, 1, 1)] = np.array([[-1.0]])  # magnitude-one flip at the top degree
    rep = cara.verify_solution(prob, cara.ExtensionResult(3, bad, {}), samples=10, seed=6)
    assert not rep.passed
    assert not rep.checks["extension_psd"][0] or not rep.checks["nilpotent_positive"][0]


def test_moment_problem_view():
    prob = scalar_problem(1, 1, {(): 1.0, (1,): 1.0j})
    mu = cara.moment_problem_view(prob)
    assert mu.forward[(1,)][0, 0] == pytest.approx(-1.0j)  # conjugate of b_1
    assert mu.backward[(1,)][0, 0] == pytest.approx(1.0j)

    trivial = cara.moment_problem_view(scalar_problem(2, 1, {(): 1.0}))
    assert not trivial.forward and not trivial.backward

    # P(view) at nilpotent samples reproduces b_0 (x) I + sum b_a (x) X_a + adjoint
    rng = np.random.default_rng(7)
    prob = scalar_problem(2, 2, {(): 1.0, (1,): 0.3, (1, 2): 0.1 - 0.2j})
    mu = cara.moment_problem_view(prob)
    x = random_nilpotent_tuple(rng, 2, 3, row_norm=0.8)
    got = tr.poisson_transform_of(mu, x)
    want = kron(prob.coefficient(()), np.eye(3))
    for w, c in prob.coeffs.items():
        if w:
            want = want + kron(c, x.word(w)) + kron(adjoint(c), adjoint(x.word(w)))
    assert np.max(np.abs(got - want)) <= 1e-12

    with pytest.raises(InputError):
        cara.moment_problem_view(cara.CaratheodoryProblem(1, 1, {(): np.eye(2)}))
