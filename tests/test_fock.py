import math
import tracemalloc

import numpy as np
import pytest

from freefock import fock, linalg
from freefock.errors import InputError, ScopeError, SizeLimitError
from freefock.fock import (
    FockTrunc,
    OperatorTuple,
    SplitMix64,
    apply_berezin_factor,
    apply_pluriharmonic_poisson,
    berezin_kernel,
    berezin_transform,
    isometric_dilation,
    poisson_kernel,
    poisson_transform,
    random_nilpotent_stack,
    random_nilpotent_tuple,
    reconstruction_operator,
    tail_bound,
)
from freefock.linalg import adjoint, kron, operator_norm
from freefock.words import GradedBasis


def s_word(ft, word):
    """S_alpha = S_{i1} ... S_{ik}: e_beta -> e_{alpha beta}."""
    out = np.eye(ft.dim)
    for i in word:
        out = out @ ft.left_creation(i)
    return out


def basis_vector(ft, word):
    v = np.zeros(ft.dim, dtype=complex)
    v[ft.index(word)] = 1.0
    return v


def test_left_creation_smallest():
    ft = FockTrunc(1, 1)
    assert np.array_equal(ft.left_creation(1), [[0, 0], [1, 0]])


def test_left_creation_action():
    ft = FockTrunc(2, 2)
    assert np.array_equal(ft.left_creation(1) @ basis_vector(ft, ()), basis_vector(ft, (1,)))
    assert np.array_equal(
        ft.left_creation(2) @ basis_vector(ft, (1,)), basis_vector(ft, (2, 1))
    )


def test_creation_truncates_top_degree():
    ft = FockTrunc(2, 2)
    top = basis_vector(ft, (1, 2))
    assert not (ft.left_creation(1) @ top).any()
    assert not (ft.right_creation(1) @ top).any()
    # S_alpha vanishes entirely from length N + 1 on
    assert not s_word(ft, (1, 2, 1)).any()


def test_right_creation_action():
    ft = FockTrunc(2, 2)
    assert np.array_equal(
        ft.right_creation(1) @ basis_vector(ft, (2,)), basis_vector(ft, (2, 1))
    )
    # single generator: appending and prepending agree
    ft1 = FockTrunc(1, 3)
    assert np.array_equal(ft1.right_creation(1), ft1.left_creation(1))


def test_creation_matrices_match_word_oracle():
    """S_i and R_i move e_v to e_{i v} and e_{v i} through the enumerated
    basis, for every v below the top degree; the projections are 0/1
    diagonals over the degree ranges."""
    for n in (1, 2, 3):
        for N in range(5):
            ft, basis = FockTrunc(n, N), GradedBasis(n, N)
            for i in range(1, n + 1):
                for shift, concat in ((ft.left_creation, lambda v: (i,) + v),
                                      (ft.right_creation, lambda v: v + (i,))):
                    want = np.zeros((ft.dim, ft.dim), dtype=complex)
                    for v in basis.words[: basis.degree_slice(N - 1)[1] if N else 0]:
                        want[basis.index[concat(v)], basis.index[v]] = 1.0
                    got = shift(i)
                    assert got.dtype == want.dtype and np.array_equal(got, want)
            for k in range(N + 1):
                want = np.diag([1.0 + 0j if len(w) <= k else 0j for w in basis.words])
                assert np.array_equal(ft.degree_projection(k), want)


def test_fock_trunc_is_a_value():
    """(n, N) fixes the space: equal instances compare and hash alike, and
    a realization is accepted on any equal instance."""
    a, b = FockTrunc(2, 4), FockTrunc(2, 4)
    assert a == b and hash(a) == hash(b) and len({a, b, FockTrunc(2, 5)}) == 2
    assert (a.dim, a.degree_slice(2), a.index((2, 1))) == (31, (3, 7), 5)
    with pytest.raises(AttributeError):
        a.N = 5
    for n, N in ((0, 2), (10, 1), (2, -1)):
        with pytest.raises(InputError):
            FockTrunc(n, N)
    with pytest.raises(InputError):
        a.index((1,) * 5)

    from freefock.transforms import from_vector_states

    x = random_nilpotent_tuple(np.random.default_rng(3), 2, 2, row_norm=0.5)
    v = np.zeros(a.dim, dtype=complex)
    v[0] = 1.0
    mu = from_vector_states(a, [(1.0, v, v)], 2)
    assert np.allclose(berezin_transform(b, mu, np.eye(b.dim), x), np.eye(2))
    big = FockTrunc(2, 5)
    with pytest.raises(InputError, match="different truncated Fock space"):
        berezin_transform(big, mu, np.eye(big.dim), x)


def test_degree_projection():
    ft = FockTrunc(2, 2)
    assert np.array_equal(ft.degree_projection(2), np.eye(7))
    assert np.array_equal(np.diag(ft.degree_projection(1)), [1, 1, 1, 0, 0, 0, 0])
    q1, q2 = ft.degree_projection(1), ft.degree_projection(2)
    assert np.array_equal(q1 @ q2, ft.degree_projection(1))
    with pytest.raises(InputError):
        ft.degree_projection(3)


def test_creation_relations():
    for n, N in ((1, 3), (2, 3), (3, 2)):
        ft = FockTrunc(n, N)
        q = ft.degree_projection(N - 1)
        for i in range(1, n + 1):
            si, ri = ft.left_creation(i), ft.right_creation(i)
            for j in range(1, n + 1):
                sj, rj = ft.left_creation(j), ft.right_creation(j)
                want = q if i == j else np.zeros_like(q)
                assert np.max(np.abs(adjoint(si) @ sj - want)) == 0.0
                assert np.max(np.abs(si @ rj - rj @ si)) == 0.0


def test_reconstruction_operator():
    ft = FockTrunc(2, 3)
    zero = OperatorTuple((np.zeros((2, 2)), np.zeros((2, 2))))
    assert not reconstruction_operator(ft, zero).any()

    ft1 = FockTrunc(1, 4)
    t = OperatorTuple((np.array([[0.37]]),))
    assert operator_norm(reconstruction_operator(ft1, t)) == pytest.approx(0.37, rel=1e-12)

    rng = np.random.default_rng(0)
    x = random_nilpotent_tuple(rng, 2, 3, row_norm=0.9)
    rx = reconstruction_operator(ft, x)
    assert operator_norm(rx) <= x.row_norm + 1e-12
    assert np.max(np.abs(np.linalg.matrix_power(rx, ft.N + 1))) <= 1e-12


def test_berezin_kernel_zero_and_scope():
    ft = FockTrunc(2, 2)
    zero = OperatorTuple((np.zeros((2, 2)), np.zeros((2, 2))))
    assert np.allclose(berezin_kernel(ft, zero), np.eye(ft.dim * 2))
    big = OperatorTuple((np.eye(2), np.zeros((2, 2))))
    with pytest.raises(ScopeError):
        berezin_kernel(ft, big)


def test_dense_constructions_check_size_before_allocating():
    """Under a 64 x 64 cap the Berezin kernel (d = 127) and the dilation
    (side 381) raise before any matrix of their size exists."""
    x = OperatorTuple((np.array([[0.1]]), np.array([[0.2]])))
    t = OperatorTuple(tuple(np.full((3, 3), 0.1) for _ in range(2)))
    old = linalg.MAX_DIM
    linalg.set_max_dim(64)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError):
            berezin_kernel(FockTrunc(2, 6), x)
        with pytest.raises(SizeLimitError):
            isometric_dilation(t, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        linalg.set_max_dim(old)
    assert peak < 64 * 64 * 16


def test_berezin_kernel_two_evaluation_paths():
    # terminating Neumann sum against the solve-based resolvent
    rng = np.random.default_rng(1)
    ft = FockTrunc(2, 4)
    x = random_nilpotent_tuple(rng, 2, 3, row_norm=0.8)
    rx = reconstruction_operator(ft, x)
    neumann = np.eye(rx.shape[0], dtype=complex)
    term = np.eye(rx.shape[0], dtype=complex)
    for _ in range(ft.N):
        term = term @ rx
        neumann += term
    delta = fock.delta_defect(x)
    direct = kron(np.eye(ft.dim), delta) @ neumann
    assert np.max(np.abs(direct - berezin_kernel(ft, x))) <= 1e-12


def test_poisson_kernel_blocks():
    ft = FockTrunc(2, 3)
    zero = OperatorTuple((np.zeros((2, 2)), np.zeros((2, 2))))
    k = poisson_kernel(ft, zero)
    assert np.allclose(k[:2], np.eye(2))
    assert not k[2:].any()

    ft1 = FockTrunc(1, 2)
    t = 0.6
    k = poisson_kernel(ft1, OperatorTuple((np.array([[t]]),)))
    want = np.sqrt(1 - t * t) * np.array([[1.0], [t], [t * t]])
    assert np.allclose(k, want)


def _full_tuple(rng, n, p, row_norm=0.9):
    mats = [rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)) for _ in range(n)]
    return OperatorTuple(tuple(mats)).scale(row_norm / operator_norm(np.hstack(mats)))


def test_poisson_kernel_matches_the_word_oracle():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        for p in (1, 2, 3):
            for x in (random_nilpotent_tuple(rng, n, p, row_norm=0.9), _full_tuple(rng, n, p)):
                delta = fock.delta_defect(x)
                for N in (0, 1, 2, 6):
                    ft = FockTrunc(n, N)
                    k = poisson_kernel(ft, x).reshape(ft.dim, p, p)
                    want = np.array([delta @ adjoint(fock.word_operator(x.matrices, w))
                                     for w in GradedBasis(n, N).words])
                    scale = np.max(np.abs(want))
                    assert np.max(np.abs(k - want)) <= 1e-14 * (1.0 + scale)


def test_poisson_kernel_is_exactly_zero_past_the_nilpotency_order():
    rng = np.random.default_rng(19)
    for n in (1, 2, 3):
        for p in (2, 3, 4):
            ft = FockTrunc(n, 8)
            x = random_nilpotent_tuple(rng, n, p, row_norm=0.8)  # X_w = 0 for |w| >= p
            k = poisson_kernel(ft, x).reshape(ft.dim, p, p)
            top = ft.degree_slice(p - 1)
            assert k[top[0]:top[1]].any()
            assert not k[top[1]:].any()


def test_poisson_kernel_checks_in_order_before_allocating():
    ft = FockTrunc(3, 12)  # d = 797161 words: d p^2 is over the entry limit at p = 5
    big = OperatorTuple(tuple(np.eye(5) for _ in range(3)))
    small = big.scale(0.1)
    with pytest.raises(InputError):
        poisson_kernel(ft, OperatorTuple(big.matrices[:2]))
    with pytest.raises(ScopeError):
        poisson_kernel(ft, big)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError):
            poisson_kernel(ft, small)
        with pytest.raises(SizeLimitError):
            poisson_kernel(FockTrunc(3, 16), small)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_poisson_kernel_is_berezin_restriction():
    rng = np.random.default_rng(2)
    ft = FockTrunc(2, 3)
    x = random_nilpotent_tuple(rng, 2, 3, row_norm=0.7)
    b = berezin_kernel(ft, x)
    assert np.max(np.abs(b[:, : x.dim] - poisson_kernel(ft, x))) <= 1e-12


def test_poisson_kernel_isometry_nilpotent():
    rng = np.random.default_rng(3)
    for n in (1, 2):
        ft = FockTrunc(n, 5)
        x = random_nilpotent_tuple(rng, n, 4, row_norm=0.9)
        k = poisson_kernel(ft, x)
        assert np.max(np.abs(adjoint(k) @ k - np.eye(4))) <= 1e-12


def test_poisson_kernel_near_isometry_norm_r():
    ft = FockTrunc(1, 6)
    r = 0.5
    k = poisson_kernel(ft, OperatorTuple((np.array([[r]]),)))
    dev = operator_norm(adjoint(k) @ k - np.eye(1))
    assert dev <= 3 * tail_bound(r, ft.N)


def test_poisson_transform_at_zero():
    ft = FockTrunc(2, 3)
    rng = np.random.default_rng(4)
    f = rng.standard_normal((ft.dim, ft.dim)) + 1j * rng.standard_normal((ft.dim, ft.dim))
    zero = OperatorTuple((np.zeros((3, 3)), np.zeros((3, 3))))
    assert np.allclose(poisson_transform(ft, f, zero), f[0, 0] * np.eye(3))


def test_poisson_transform_word_symbols():
    rng = np.random.default_rng(5)
    ft = FockTrunc(2, 6)
    x = random_nilpotent_tuple(rng, 2, 3, row_norm=0.8)
    for a, b in (((), ()), ((1,), (2,)), ((1, 2), (1,)), ((2, 2), ())):
        f = s_word(ft, a) @ s_word(ft, b).T
        got = poisson_transform(ft, f, x)
        want = x.word(a) @ adjoint(x.word(b))
        assert np.max(np.abs(got - want)) <= 1e-11
        via_index = fock.poisson_transform_word_symbol(ft, a, b, x)
        assert np.max(np.abs(via_index - want)) <= 1e-11


def test_poisson_transform_isometry_on_identity():
    rng = np.random.default_rng(6)
    ft = FockTrunc(2, 5)
    x = random_nilpotent_tuple(rng, 2, 4, row_norm=0.9)
    got = poisson_transform(ft, np.eye(ft.dim), x)
    assert np.max(np.abs(got - np.eye(4))) <= 1e-11


def test_berezin_transform_vector_state():
    from freefock.transforms import from_vector_states

    rng = np.random.default_rng(7)
    ft = FockTrunc(2, 4)
    x = random_nilpotent_tuple(rng, 2, 3, row_norm=0.6)
    f = rng.standard_normal((ft.dim, ft.dim)) + 1j * rng.standard_normal((ft.dim, ft.dim))

    tau_vec = np.zeros(ft.dim, dtype=complex)
    tau_vec[0] = 1.0
    tau = from_vector_states(ft, [(1.0, tau_vec, tau_vec)], 2)
    got = berezin_transform(ft, tau, f, x)
    assert np.max(np.abs(got - poisson_transform(ft, f, x))) <= 1e-12

    zero = OperatorTuple((np.zeros((3, 3)), np.zeros((3, 3))))
    assert np.allclose(berezin_transform(ft, tau, np.eye(ft.dim), zero), np.eye(3))

    v = np.zeros(ft.dim, dtype=complex)
    v[:3] = [0.5, 0.5j, -0.2]
    mu = from_vector_states(ft, [(1.0, v, v), (0.5, tau_vec, tau_vec)], 2)
    out = berezin_transform(ft, mu, np.eye(ft.dim), x)
    assert np.max(np.abs(out - adjoint(out))) <= 1e-11
    assert np.linalg.eigvalsh((out + adjoint(out)) / 2)[0] >= -1e-10


def test_probe_paths_match_dense():
    from freefock.pluriharmonic import pluriharmonic_poisson_kernel

    rng = np.random.default_rng(8)
    for n, N, dim in ((2, 4, 3), (1, 6, 2), (3, 3, 2)):
        ft = FockTrunc(n, N)
        x = random_nilpotent_tuple(rng, n, dim, row_norm=0.7)
        p = pluriharmonic_poisson_kernel(ft, x)
        b = berezin_kernel(ft, x)
        top = ft.degree_slice(N)
        full = rng.standard_normal((ft.dim, dim)) + 1j * rng.standard_normal((ft.dim, dim))
        # probes on every word, on the empty word only, on the top degree only
        probes = [full, np.zeros_like(full), np.zeros_like(full)]
        probes[1][0] = full[0]
        probes[2][top[0] : top[1]] = full[top[0] : top[1]]
        for v in probes:
            got = apply_pluriharmonic_poisson(ft, x, v).ravel()
            assert np.max(np.abs(got - p @ v.ravel())) <= 1e-12
            got = apply_berezin_factor(ft, x, v).ravel()
            assert np.max(np.abs(got - (adjoint(b) @ b) @ v.ravel())) <= 1e-12


def test_isometric_dilation_unitary_case():
    u = OperatorTuple((np.array([[0.6 + 0.8j]]),))  # unitary scalar, zero defect
    N = 3
    v = isometric_dilation(u, N)
    m = v.matrices[0]
    assert np.max(np.abs(m[1:, 0])) <= 1e-12  # defect column is zero
    ft = FockTrunc(1, N)
    want = np.zeros_like(m)
    want[0, 0] = 1.0
    want[1:, 1:] = ft.degree_projection(N - 1)
    assert np.max(np.abs(adjoint(m) @ m - want)) <= 1e-12


def test_isometric_dilation_compression():
    t = OperatorTuple((np.array([[0.5]]),))
    N = 3
    v = isometric_dilation(t, N).matrices[0]
    assert v[0, 0] == pytest.approx(0.5)
    # V* restricted to H is T*: V*(h + 0) = (T* h, 0, ...)
    assert np.max(np.abs(adjoint(v)[1:, 0])) <= 1e-12
    assert adjoint(v)[0, 0] == pytest.approx(0.5)
    # defect embeds at the degree-zero slot with weight sqrt(1 - |t|^2)
    assert v[1, 0] == pytest.approx(np.sqrt(0.75))


def test_isometric_dilation_isometry_below_top_degree():
    rng = np.random.default_rng(9)
    n, p, N = 2, 2, 2
    mats = tuple(rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)) for _ in range(n))
    t = OperatorTuple(mats)
    t = t.scale(0.95 / t.row_norm)
    vs = isometric_dilation(t, N)
    ft = FockTrunc(n, N)
    # projection onto H + (degree <= N-1 Fock part) (x) defect
    d = p + ft.dim * n * p
    proj = np.zeros((d, d), dtype=complex)
    proj[:p, :p] = np.eye(p)
    q = ft.degree_projection(N - 1)
    proj[p:, p:] = kron(q, np.eye(n * p))
    for i, vi in enumerate(vs.matrices):
        for j, vj in enumerate(vs.matrices):
            want = proj if i == j else np.zeros_like(proj)
            dev = proj @ (adjoint(vi) @ vj) @ proj - want
            assert np.max(np.abs(dev)) <= 1e-10


def test_isometric_dilation_rejects_expansive():
    t = OperatorTuple((np.array([[1.2]]),))
    with pytest.raises(ScopeError):
        isometric_dilation(t, 2)


def test_tail_bound():
    assert tail_bound(0.0, 5) == 0.0
    assert tail_bound(0.5, 9) == pytest.approx(0.5**10 / np.sqrt(0.75), rel=1e-12)
    assert tail_bound(0.5, 9) == pytest.approx(1.1276e-3, rel=1e-3)
    assert tail_bound(0.7, 6) > tail_bound(0.7, 7)
    with pytest.raises(ScopeError):
        tail_bound(1.0, 3)


def test_operator_tuple_validation():
    with pytest.raises(InputError):
        OperatorTuple(())
    with pytest.raises(InputError):
        OperatorTuple((np.eye(2), np.eye(3)))
    for bad in (np.inf, np.nan):
        with pytest.raises(InputError, match="finite"):
            OperatorTuple((np.zeros((2, 2)), np.array([[0.1, bad], [0.0, 0.0]])))
    x = OperatorTuple((np.zeros((2, 2)), np.eye(2)))
    assert x.n == 2 and x.dim == 2 and x.row_norm == pytest.approx(1.0)


def test_word_operator_order():
    a = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
    b = np.array([[0, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    x = OperatorTuple((a, b))
    # X_(1,2) = X_1 X_2 maps e3 -> e1
    got = x.word((1, 2))
    assert got[0, 2] == 1.0 and np.count_nonzero(got) == 1


def _stack_from_upper_entries(rng, n, dim, samples, row_norm=None):
    """The stack drawn by hand: a norm range's norms in one uniform call,
    then one standard_normal call read sample by sample and letter by
    letter, the real and then the imaginary parts of the strictly upper
    entries in row-major order; each block row is rescaled to its norm,
    a zero draw left as it is."""
    norms = rng.uniform(*row_norm, samples) if np.ndim(row_norm) == 1 else [row_norm] * samples
    upper = [(r, c) for r in range(dim) for c in range(r + 1, dim)]
    draws = iter(rng.standard_normal(samples * n * 2 * len(upper)).tolist())
    tuples = []
    for norm in norms:
        mats = []
        for _ in range(n):
            re, im = [next(draws) for _ in upper], [next(draws) for _ in upper]
            m = np.zeros((dim, dim), dtype=complex)
            for (r, c), x, y in zip(upper, re, im):
                m[r, c] = complex(x, y)
            mats.append(m)
        t = OperatorTuple(tuple(mats))
        if norm is not None and t.row_norm > 0:
            t = t.scale(norm / t.row_norm)
        tuples.append(t.matrices)
    assert next(draws, None) is None
    return np.array(tuples).reshape(samples, n, dim, dim).swapaxes(0, 1)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _check_stack_against_upper_entries(make_rng, n, dim):
    """random_nilpotent_stack with a norm range draws what the hand-written
    reference places, bit for bit and zero signs too, and leaves the
    stream where it left it; dim 1 draws zero tuples, which are not
    rescaled.  random_nilpotent_tuple is one sample of it, at a fixed
    norm or none."""
    rng, again = make_rng(), make_rng()
    want = _stack_from_upper_entries(rng, n, dim, 7, (0.2, 0.95))
    got = random_nilpotent_stack(again, n, dim, 7, (0.2, 0.95))
    assert got.shape == (n, 7, dim, dim)
    assert np.array_equal(_bits(got), _bits(want))
    assert again.uniform() == rng.uniform() and again.standard_normal() == rng.standard_normal()
    if dim == 1:
        assert not got.any()
    else:
        norms = [operator_norm(np.hstack(got[:, s])) for s in range(7)]
        assert all(0.2 <= r <= 0.95 for r in norms)
    for row_norm in (None, 0.7, 0.0):
        a, b = make_rng(), make_rng()
        got = random_nilpotent_tuple(a, n, dim, row_norm=row_norm).matrices
        assert np.array_equal(_bits(got), _bits(_stack_from_upper_entries(b, n, dim, 1, row_norm)[:, 0]))


@pytest.mark.parametrize("n,dim", [(1, 1), (1, 4), (2, 8), (3, 5), (9, 3)])
def test_nilpotent_stack_draws_the_per_sample_loop_bitwise(n, dim):
    """A numpy Generator, which has the stream's two signatures, draws
    the reference's per-sample loop over the strictly upper entries."""
    _check_stack_against_upper_entries(lambda: np.random.default_rng(10 * n + dim), n, dim)


@pytest.mark.parametrize("n,dim", [(1, 1), (1, 4), (2, 8), (3, 5)])
def test_nilpotent_stack_from_the_package_stream_draws_the_per_sample_loop_bitwise(n, dim):
    """So does the package's one sample stream, SplitMix64."""
    _check_stack_against_upper_entries(lambda: SplitMix64(n + dim), n, dim)


_M64 = 2**64 - 1


def _splitmix64(seed, i):
    """The i-th draw of the SplitMix64 stream with key seed, in Python ints."""
    z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def test_splitmix64_draws_match_the_scalar_definition():
    """Even draws of the key's SplitMix64 stream give uniform's 53-bit
    values exactly; odd draws, in pairs (u, v), give Box-Muller normals
    r (cos, sin)(2 pi (v - 1/2)), r = sqrt(-2 log u), within rounding;
    at the start of the stream and in every block up to 70000."""
    seed = 12345
    at = [0, 1, 49, 1023, 1024, 2047, 2048, 4096, 16_383, 16_384, 40_000, 69_999]
    got = SplitMix64(seed).uniform(size=70_000)[at]
    assert got.tolist() == [(_splitmix64(seed, 2 * j) >> 11) * 2.0**-53 for j in at]
    want = []
    for q in (j // 2 for j in at):
        u, v = (((_splitmix64(seed, 4 * q + j) >> 11) + 1) * 2.0**-53 for j in (1, 3))
        r, angle = math.sqrt(-2.0 * math.log(u)), 2.0 * math.pi * (v - 0.5)
        want.append((r * math.cos(angle), r * math.sin(angle)))
    got = SplitMix64(seed).standard_normal(70_000).reshape(-1, 2)[[j // 2 for j in at]]
    assert np.max(np.abs(got - want)) <= 1e-14


def test_splitmix64_integers_and_normal_match_the_scalar_definition():
    """integers(low, high) is low + floor(k w / 2^53), in Python ints, for
    the 53-bit k of the even draw that uniform would read, at widths w
    from 1 to 2^53; integers(high) is integers(0, high); normal is
    loc + scale * standard_normal; a scalar call gives an int or a float."""
    seed = 12345
    for low, high in [(0, 1), (-3, 4), (1, 3), (0, 2**31), (5, 5 + 2**53), (-(2**60), 3 - 2**60)]:
        got = SplitMix64(seed).integers(low, high, 3000)
        want = [low + ((_splitmix64(seed, 2 * j) >> 11) * (high - low) >> 53) for j in range(3000)]
        assert got.dtype == np.int64 and got.tolist() == want
    assert SplitMix64(seed).integers(7, size=(5, 4)).tolist() == SplitMix64(seed).integers(0, 7, (5, 4)).tolist()
    s = SplitMix64(seed)
    first, second = s.integers(10), s.integers(np.int64(-4), 4)
    assert type(first) is int and type(second) is int
    assert (first, second) == ((_splitmix64(seed, 0) >> 11) * 10 >> 53, -4 + ((_splitmix64(seed, 2) >> 11) * 8 >> 53))
    assert s.uniform() == (_splitmix64(seed, 4) >> 11) * 2.0**-53  # integers and uniform share a substream
    got = SplitMix64(seed).normal(1.5, 0.25, 101)
    assert np.array_equal(_bits(got), _bits(1.5 + 0.25 * SplitMix64(seed).standard_normal(101)))
    s, t = SplitMix64(seed), SplitMix64(seed)
    x = s.normal(-2.0, 3.0)
    assert type(x) is float and x == -2.0 + 3.0 * t.standard_normal()
    assert s.normal() == t.standard_normal()


def test_splitmix64_integers_refuses_a_range_it_cannot_cover():
    """An empty range and one of more than 2^53 values are refused, before
    anything is drawn; 2^53 values are not."""
    s = SplitMix64(9)
    for args in [(0,), (-1,), (3, 3), (4, 2), (0, 2**53 + 1), (-(2**62), 2**62)]:
        with pytest.raises(ValueError):
            s.integers(*args)
    assert s.uniform() == SplitMix64(9).uniform()
    assert 0 <= s.integers(2**53) < 2**53 and s.integers(-5, 2**53 - 5, 4).min() >= -5


def test_splitmix64_draws_are_the_same_bits_in_one_call_or_in_chunks():
    whole = SplitMix64(3)
    normals = whole.standard_normal(150_001)
    uniforms = whole.uniform(-2.0, 3.0, 70_001)
    parts = SplitMix64(3)
    cuts = [1, 2, 3, 1021, 1024, 4097, 30_000, 50_000]  # across blocks of 2^10 to 2^14
    got = [parts.standard_normal() for _ in range(3)] + [parts.standard_normal(k) for k in cuts]
    got.append(parts.standard_normal((150_001 - 3 - sum(cuts), 1)))
    got = np.concatenate([np.ravel(x) for x in got])
    assert np.array_equal(_bits(got), _bits(normals))
    got = [parts.uniform(-2.0, 3.0) for _ in range(5)] + [parts.uniform(-2.0, 3.0, (7, 3))]
    got.append(parts.uniform(-2.0, 3.0, 70_001 - 26))
    got = np.concatenate([np.ravel(x) for x in got])
    assert np.array_equal(_bits(got), _bits(uniforms))
    assert isinstance(parts.uniform(), float) and isinstance(parts.standard_normal(), float)
    whole, parts = SplitMix64(4), SplitMix64(4)
    ints, normals = whole.integers(-5, 9, 30_001), whole.normal(0.5, 2.0, 30_001)
    cuts = [1, 1020, 3000, 16_000]  # across blocks of 2^10 to 2^14
    got = [parts.integers(-5, 9) for _ in range(3)] + [parts.integers(-5, 9, k) for k in cuts]
    got.append(parts.integers(-5, 9, 30_001 - 3 - sum(cuts)))
    assert np.concatenate([np.ravel(x) for x in got]).tolist() == ints.tolist()
    got = [parts.normal(0.5, 2.0) for _ in range(3)] + [parts.normal(0.5, 2.0, k) for k in cuts]
    got.append(parts.normal(0.5, 2.0, 30_001 - 3 - sum(cuts)))
    assert np.array_equal(_bits(np.concatenate([np.ravel(x) for x in got])), _bits(normals))


def test_splitmix64_seeds():
    """One seed, one stream; different seeds, different streams; a seed
    past 2^64 is folded, not truncated; a negative seed is refused."""
    draws = {seed: SplitMix64(seed).standard_normal(64).tobytes()
             for seed in (0, 1, 2, 3, 2**32, 2**63, 2**64 - 1, 2**64, 2**70, 2**128 + 5)}
    assert len(set(draws.values())) == len(draws)
    assert SplitMix64(2**70).standard_normal(64).tobytes() == draws[2**70] != draws[0]
    assert SplitMix64(np.int64(3)).uniform(size=9).tobytes() == SplitMix64(3).uniform(size=9).tobytes()
    assert SplitMix64(5).uniform(size=9).tobytes() != SplitMix64(6).uniform(size=9).tobytes()
    for seed in (-1, -(2**70)):
        with pytest.raises(InputError):
            SplitMix64(seed)


def test_splitmix64_uniforms_in_range_and_normals_standard():
    s = SplitMix64(2024)
    u = s.uniform(0.2, 0.95, 100_000)
    assert u.min() >= 0.2 and u.max() < 0.95
    unit = s.uniform(size=100_000)
    assert unit.min() >= 0.0 and unit.max() < 1.0 and abs(unit.mean() - 0.5) < 0.01
    x = s.standard_normal(100_000)
    assert np.isfinite(x).all()
    assert abs(x.mean()) < 0.02 and abs(x.var() - 1.0) < 0.02
