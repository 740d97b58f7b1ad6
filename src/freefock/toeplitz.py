"""Multi-Toeplitz matrices on the graded word basis: T_m of a square free
series of symbol coefficients, assembled densely by scattering its
blocks (fock.shift_sum), or factored without assembly by the recursive
Schur factorisation of its tree structure.

Put the words in last-letter tree order: the root, then, for each letter
i, the words v i with v in tree order.  Then

    T_k = [[b_0, r], [r*, I_n (x) T_{k-1}]],   r_i = [b_{v i}*]_v,

and with Z_i^(k) = T_{k-1}^{-1} r_i* and the pivot s_k = b_0 - sum_i r_i Z_i^(k),
T_k = U D U* where D holds s_j at every word of length k - j and
U^{-1} = I - N, N having the blocks Z_i^(j)[v]* at (w, v i w).  So the
inertia of T_k is sum_j n^(k-j) inertia(s_j) (Constantinescu-Johnson,
displacement structure on the free semigroup).  I_n (x) T_{j-1} acting on
a block vector is T_{j-1} acting on n times as many columns, so each
level of a solve is one batched product over views of one array, and T
is never formed.  nested_factor runs the same level loop for blocks given
per level in graded order; the norm of a multi-analytic operator
(multianalytic) is its other case.  The tree order stays in this module:
SchurFactor.newton gives both certifiers the last pivot's Newton step.

tm_positivity is the one place that decides T_m >= -tol I and gives its
smallest eigenvalue, at any level m: dense where dense_decides, above by the
factorisation and Newton-steered probes of its inertia (certify).  check_feasibility,
extend's certificate, verify_solution and pluriharmonic.check_positive call it.
From side DEEP_DIM up the dense path goes k = max(1, m // 2) levels down the
same tree for n >= 2 (tree_min_eig): one eigh of T_{m-k}, about n^k times
smaller, and the secular equation of the border of T_{k-1} give
lambda_min(T_m) (Golub 1973; Bunch, Nielsen and Sorensen 1978).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ScopeError
from .fock import shift_sum
from .linalg import adjoint, check_hermitian, eigh_hermitian
from .words import join_indices, word_count

# At or below this side d p the assembled T_m decides positivity and gives
# its smallest eigenvalue (by the kernel tm_positivity picks); above it a Schur
# factorisation of T_m + tol I decides and steered inertia probes bracket it.
# k = m // 2 levels down / structured / eigvalsh of T_m on moment data
# (bench/fixtures.py), assembly included, 2 cores (OpenBLAS), medians of
# 7 in three runs, ms: 0.6 / 6.7-7.1 / 8.3-9.0 at n = 2, d p = 255;
# 0.8-0.9 / 6.9-9.0 / 7.9-11 at 254 (p = 2); 0.5-0.6 / 4.5-4.6 / 6.4-8.8 at
# n = 3, 242 (p = 2); 0.6-0.7 / 4.3-4.9 / 9.7-10 at n = 6, 259 (k = 1);
# 0.4-0.9 / 3.2-6.5 / 15-21 at n = 4, 341; 0.6-1.1 / 5.7-7.7 / 21-22 at
# n = 3, 364; 1.7-1.9 / 12-17 / 55-60 at n = 2, 511.  So the tree path
# leads the factorisation 4-10 times on both sides of 300; 300 is where
# eigvalsh tied, and moving it changes which outputs carry min_eig_atol.
# For n = 1 the tree is a chain of d levels, so a factorisation takes
# O(d^2) small steps and is slower than eigvalsh (0.65 / 2.8 / 7.6 s
# against 0.17 / 1.3 / 4.2 s at d = 301 / 601 / 1001): dense decides there
# at every side, and assemble_T refuses one past the side cap (exit 4).
DENSE_DIM = 300

# From this side d p up the dense path for n >= 2 goes down the tree
# (tree_min_eig), below it eigvalsh of the assembled T_m: eigvalsh / tree on
# moment data, one thread, medians of 41, us: 77 / 146 at (n, m, p) = (2, 2,
# 1), side 7; 104 / 264 at (2, 4, 1), 31; 298 / 306 at (2, 4, 2), 62; 300 /
# 287 at (2, 5, 1), 63; 306 / 141 at (8, 2, 1), 73; 1368 / 431 at (2, 5, 2),
# 126.  Below 64 the tree leads only for large n (195 / 138 at (7, 2, 1)).
DEEP_DIM = 64


def dense_decides(n, dim, limit=DENSE_DIM):
    """Whether the dense path decides for a matrix of side dim: up to
    limit, and for n = 1 (a chain of d levels) at every side."""
    return dim <= limit or n == 1


# A pivot eigenvalue at or below this fraction of the largest eigenvalue
# of b_0 counts as zero (generalised Schur complement): well above
# roundoff, so an exact kernel stays a kernel.
PIVOT_RTOL = 1e-12

# Above the dense side lambda_min(T_m) is bracketed to this times a bound on ||T_m||.
MIN_EIG_RTOL = 1e-9


def assemble_T(f, m=None):
    """T_m = sum b_a* (x) (S_a^(m))* + b_0 (x) I + sum b_a (x) S_a^(m) for a
    square series f of the b_a, m = f.cutoff by default (words longer
    than m reach nothing, words past the cutoff have b_a = 0): a dense
    ndarray, coefficient-major on C^p (x) P^(m), the shift sum
    (fock.shift_sum) of f's blocks and their adjoints.  b_0 must be Hermitian within tolerance; its
    Hermitian part (b_0 + b_0*)/2 goes on the diagonal, so the result is
    exactly Hermitian."""
    p = f.square("a multi-Toeplitz matrix")
    lower = {**f.blocks, 0: (np.zeros(1, np.int64), check_hermitian(f.constant_term())[None])}
    upper = {k: (codes, c.conj().swapaxes(1, 2)) for k, (codes, c) in f.blocks.items() if k}
    return shift_sum(f.n, f.cutoff if m is None else m, p, lower, upper)


# -- recursive Schur factorisation -------------------------------------------


def tree_order(n, k):
    """Graded indices of the words of length <= k in last-letter tree order."""
    order = np.zeros(1, np.int64)
    for _ in range(k):
        order = _grow(n, order)
    return order


def _grow(n, order):
    """The tree order one level deeper: the root, then the words v i for
    each letter i; the graded index of v i is n g(v) + i."""
    return np.concatenate([[0], (n * order + np.arange(1, n + 1)[:, None]).ravel()])


@dataclass
class SchurFactor:
    """T_k + shift I = U D U* for the coefficients of a square series, with
    k = levels.  pivots[j] is s_j; z[j] (j >= 1) is Z^(j) as the
    (n d_{j-1} p, p) matrix whose rows run over (letter i, word v in tree
    order, row of the block).  With stop, the factorisation ends at the
    first level that is not PSD: T_j is a principal submatrix of every
    T_k, k >= j, so none of them is PSD."""

    n: int
    p: int
    cut: float  # pivot eigenvalues in [-cut, cut] count as zero
    range_tol: float  # largest admitted component of r* along a zero pivot
    pivots: list = field(default_factory=list)
    eigenvalues: list = field(default_factory=list)  # of each pivot, ascending
    eigenvectors: list = field(default_factory=list)  # of each pivot, in that order
    z: list = field(default_factory=lambda: [None])
    range_gap: float = 0.0  # largest such component met in the factorisation
    _inverses: list = field(default_factory=list)
    _kernels: list = field(default_factory=list)  # zero-pivot directions, (p, z)

    @property
    def levels(self):
        return len(self.pivots) - 1

    @property
    def is_psd(self):
        """The generalised Schur test for T_k + shift I: no pivot
        eigenvalue below -cut, and each r* in the range of T_{j-1} up to
        range_tol = (cut lambda_max(b_0 + shift))^(1/2), which admits a
        component c along a zero pivot when [[0, c], [c*, lambda_max]] is
        PSD within cut."""
        return self.range_gap <= self.range_tol and all(w[0] >= -self.cut for w in self.eigenvalues)

    def inertia(self):
        """(negative, zero, positive) eigenvalue counts of T_k + shift I."""
        k, counts = self.levels, np.zeros(3, dtype=object)
        for j, w in enumerate(self.eigenvalues):
            counts += self.n ** (k - j) * np.array(
                [(w < -self.cut).sum(), (abs(w) <= self.cut).sum(), (w > self.cut).sum()]
            )
        return tuple(int(c) for c in counts)

    def newton(self):
        """(f, u, Z^(j) u) at the last level j: the smallest eigenpair of s_j
        and Z^(j) u (rows as in z[j], empty at j = 0).  x = [u; -Z^(j) u] in
        tree order has x* M_j x = f (Cybenko-Van Loan)."""
        j = self.levels
        u = self.eigenvectors[j][:, 0]
        return self.eigenvalues[j][0], u, self.z[j] @ u if j else np.zeros(0)

    def graded(self, x, size=None):
        """x over the words of length <= levels, moved from tree to graded
        order in a zero stack of size rows (default len(x))."""
        out = np.zeros((size or len(x),) + x.shape[1:], dtype=complex)
        out[tree_order(self.n, self.levels)] = x
        return out

    def solve(self, x, j):
        """T_j^+ x in place for x of shape (d_j, p, q) in tree order; the
        pseudo-inverse acts at singular pivots, so T_j x' = x holds
        whenever x lies in the range of T_j.  Level t holds the subtrees
        of the words of length t, a view of x with t batch axes of size n
        (none for n = 1): its roots, and the rest of each subtree as one
        (n d_{j-t-1} p, q) block."""
        n, p, q = self.n, self.p, x.shape[-1]
        roots, rests = [], []
        for _ in range(j):
            batch = x.shape[:-3]
            roots.append(x[..., 0, :, :])
            rests.append(x[..., 1:, :, :].reshape(batch + (-1, q)))
            x = x[..., 1:, :, :].reshape(batch + (n,) * (n > 1) + (-1, p, q))
        roots.append(x[..., 0, :, :])
        for t in range(j):  # U^{-1}: each root minus Z* of its raw subtree
            roots[t] -= np.matmul(adjoint(self.z[j - t]), rests[t])
        gap = 0.0  # the largest component of a root along a zero pivot
        for t, root in enumerate(roots):
            kernel = self._kernels[j - t]
            if kernel.shape[1]:
                gap = max(gap, float(np.max(np.abs(np.matmul(adjoint(kernel), root)))))
            root[...] = np.matmul(self._inverses[j - t], root)
        for t in range(j - 1, -1, -1):  # U^{-*}, deepest level first
            rests[t] -= np.matmul(self.z[j - t], roots[t])
        return gap

    def _push(self, s, psd, z=None):
        """Append the pivot s (and Z of its level)."""
        if not np.isfinite(s).all():
            raise ScopeError("the Schur factorisation overflowed; the data is out of scale")
        w, v = np.linalg.eigh(s)
        keep = w > self.cut if psd else abs(w) > self.cut
        self.pivots.append(s)
        self.eigenvalues.append(w)
        self.eigenvectors.append(v)
        self._inverses.append((v[:, keep] / w[keep]) @ adjoint(v[:, keep]))
        self._kernels.append(v[:, ~keep])
        if z is not None:
            self.z.append(z)


def shifted_factor(f, levels=None):
    """The recursive Schur factorisation of T_k + shift I for a square
    series f, k = levels (default f.cutoff), as a function of (shift,
    stop=False, psd=False): nested_factor with alpha_j = b_0 + shift I and
    beta_j* = r*, f's coefficients stacked once for every shift
    (FreeSeries.graded_stack).  With psd the pivots' negative eigenvalues
    count as zero, as for data positive only within a tolerance."""
    n, p = f.n, f.square("a multi-Toeplitz factorisation")
    k = f.cutoff if levels is None else levels
    graded = f.graded_stack(k)
    b0 = check_hermitian(graded[0])

    def beta(j):  # beta_j^(i)*[v] = b_{v i}, and the graded index of v i is n g(v) + i
        return graded[1:word_count(n, j)].reshape(-1, n, p, p).swapaxes(0, 1)

    def factor(shift, stop=False, psd=False):
        alpha = b0 + shift * np.eye(p)
        return nested_factor(n, p, k, lambda j: alpha, beta, float(np.linalg.eigvalsh(alpha)[-1]),
                             stop, psd)

    return factor


def nested_factor(n, p, k, alpha, beta, top, stop=False, psd=False):
    """Factor M_k = U D U* for the nested matrices

        M_0 = alpha(0),   M_j = [[alpha(j), beta_j], [beta_j*, I_n (x) M_{j-1}]],

    with the p x p blocks alpha(j) Hermitian and beta(j) the (n, d_{j-1},
    p, p) stack of the block columns beta_j^(i)* over the words v of
    length < j in graded order; the level loop takes them in tree order.
    Z^(j) = M_{j-1}^+ beta_j* is one SchurFactor.solve and the pivot is
    s_j = alpha(j) - sum_i beta_j^(i) Z_i^(j).  Pivot eigenvalues within
    PIVOT_RTOL top count as zero, top being the scale of alpha."""
    cut = max(PIVOT_RTOL * top, np.finfo(float).tiny)
    fac = SchurFactor(n, p, cut, math.sqrt(cut * max(top, 0.0)))
    fac._push(alpha(0), psd)
    order = np.zeros(1, np.int64)
    with np.errstate(over="ignore", invalid="ignore"):  # _push raises on overflow
        for j in range(1, k + 1):
            if stop and not fac.is_psd:
                break
            r = beta(j)[:, order]
            x = r.transpose(1, 2, 0, 3).reshape(len(order), p, n * p).copy()
            fac.range_gap = max(fac.range_gap, fac.solve(x, j - 1))
            z = x.reshape(len(order), p, n, p).transpose(2, 0, 1, 3).reshape(-1, p)
            s = alpha(j) - np.matmul(adjoint(r.reshape(-1, p)), z)
            fac._push((s + adjoint(s)) / 2.0, psd, z)
            order = _grow(n, order)
    return fac


# -- positivity of T_m ---------------------------------------------------------


@dataclass
class TmPositivity:
    """Whether T_m >= -tol I for one series at one level m, and its
    smallest eigenvalue: from the assembled T_m where dense_decides
    (min_eig_atol None); elsewhere a Schur factorisation of T_m + tol I decides and
    min_eig <= lambda_min(T_m) <= min_eig + min_eig_atol within PIVOT_RTOL.
    The fields are cast to Python bool and float, so a record is JSON as it is."""

    feasible: bool
    min_eig: float
    matrix_dim: int
    tol: float
    min_eig_atol: float | None = None

    def __post_init__(self):
        self.feasible, self.min_eig = bool(self.feasible), float(self.min_eig)
        self.min_eig_atol = None if self.min_eig_atol is None else float(self.min_eig_atol)

    def verdict(self, tol):
        """Whether T_m >= -tol I: the one computed at self.tol, else the side
        of -tol the bracket lies on, or None when it straddles -tol."""
        if tol == self.tol:
            return self.feasible
        if self.min_eig >= -tol or self.min_eig + (self.min_eig_atol or 0.0) < -tol:
            return self.min_eig >= -tol
        return None


def certify(probe, lo, hi, atol, guess=None):
    """Narrow [lo, hi] around where a monotone predicate holds turns false,
    until it is at most atol wide or its midpoint no longer splits it.
    probe(mu) is (the predicate at mu, a guess at the turning point from
    above or None), and the smallest guess in [lo, hi) is kept.  A guess
    below hi is probed, at least atol inside the bracket, when it is the
    first since a midpoint or since a guess that held, or lies at most
    half as far below hi as the last probed guess did (Brent's
    safeguard); the midpoint is probed otherwise.  So once the guesses
    stall within atol of an end, one probe atol inside it closes the
    bracket."""
    step = None  # how far below hi the last guess was probed
    while hi - lo > atol:
        mu = mid = lo + (hi - lo) / 2.0
        if guess is not None and guess < hi and (
                step is None or hi - guess <= max(step / 2.0, atol)):
            near = min(max(guess, math.nextafter(lo + atol, lo)), math.nextafter(hi - atol, hi))
            mu = near if lo < near < hi else mid
        if not lo < mu < hi:
            break
        holds, new = probe(mu)
        # a guess that holds is at the turning point: the next guess goes unchecked
        step = None if mu == mid or holds and mu == guess else hi - mu
        lo, hi = (mu, hi) if holds else (lo, mu)
        keep = guess is not None and lo <= guess < hi and (new is None or guess <= new)
        guess = guess if keep else new
    return lo, hi


# -- the dense smallest eigenvalue down the word tree --------------------------


def _positive_root(e, g):
    """The root t >= 0 of t^2 + e t - g for g >= 0, without cancellation."""
    root = math.sqrt(e * e + 4.0 * g)
    return (root - e) / 2.0 if e <= 0.0 else 2.0 * g / (root + e)


def secular_root(delta, z, a, t, tol):
    """The root t* >= 0 of the secular function

        h(t) = t + a - sum_j z_j^2 / (delta_j + t),   delta_j >= 0

    (z broadcast against delta), from a first evaluation at t > 0.  h
    increases and is concave for t > 0, so the root of its tangent at any
    point is a lower bound on t*.  Fitting each z_j^2 / (delta_j + t) by
    s / t + c in value and slope at a point t_0 bounds it from above (by
    z_j^2 delta_j (t - t_0)^2 / (t (delta_j + t) (delta_j + t_0)^2)), so the
    root of t + a - s / t - c is an upper bound (Bunch, Nielsen and Sorensen 1978),
    exact for the pole at 0 and within second order elsewhere.  The upper
    bounds are the next points; the last one is returned once the bracket
    is at most tol wide or it stops falling."""
    lo, up = 0.0, math.inf
    while t > 0.0:
        zq = z / (delta + t)
        psi, s = float(np.vdot(zq, z)), float(np.vdot(zq, zq))
        lo = max(lo, t - (t + a - psi) / (1.0 + s))
        t = _positive_root(a - psi + t * s, t * t * s)
        if t >= up:
            break
        up = t
        if up - lo <= tol:
            break
    return min(t, up)


def tree_border(f, m, k):
    """The border R of T_{k-1} in T_m (tree_min_eig), 1 <= k <= m, gathered
    from f's coefficients as the (p, d_{k-1}, n^k, p, d_{m-k}) stack
    R[a, u, s, b, v] = conj(b_{v t}[b, a]) for s = t u, zero where u is no
    suffix of s: u, s and v in graded order, s ending the words v s."""
    n = f.n
    graded = f.graded_stack(m)
    graded[0] = 0.0  # at index 0: the pairs (u, s) with u no suffix of s
    at = np.zeros((word_count(n, k - 1), n**k, word_count(n, m - k)), np.int64)  # g(v t) at [u, s, v]
    for j in range(k):  # the words u of length j; code(s) = code(t) n^j + code(u)
        rows = at[word_count(n, j - 1):word_count(n, j)].reshape(n**j, n**(k - j), n**j, -1)
        rows[np.arange(n**j), :, np.arange(n**j)] = join_indices(n, m - j, k - j, append=True)
    return graded[at].conj().transpose(4, 0, 1, 3, 2)


def tree_min_eig(f, m):
    """lambda_min(T_m) for a square series f with n >= 2 at a level m >= 1,
    from one eigh of T_{m-k}, about n^k times smaller, k = max(1, m // 2);
    T_m itself is not assembled.  The word v s, |s| = k, sits at graded
    index d_{k-1} + code(s) + n^k g(v), so in T_m's (p, d, p, d) view each
    suffix's block [..., o::n^k, ..., o::n^k], d_{k-1} <= o < d_k, is
    T_{m-k}, blocks of different suffixes are zero, and T_m = [[T_{k-1},
    R], [R*, I (x) T_{m-k}]] up to a permutation, R being tree_border.
    With T_{m-k} = sum_j lam_j v_j v_j* (lam ascending), c_sj = R_s v_j
    and mu = lam_1 - t, t > 0, T_m - mu I is congruent to S(t) (+) I (x)
    (T_{m-k} - mu I), the second positive definite, where

        S(t) = T_{k-1} - lam_1 I + t I - sum_sj c_sj c_sj* / (lam_j - lam_1 + t).

    So lambda_min(T_m) = lam_1 - t*, t* the root of h(t) = lambda_min(S(t)),
    or lam_1 when there is none (interlacing); h increases with h' >= 1
    and is concave.  u* S(t) u >= h(t) for the unit eigenvector u of h at
    t (equal when T_{k-1} is a scalar), so the root of that secular
    function (secular_root) is a lower bound on t*, exact to second order
    in u (a Rayleigh quotient): the next point, until h there is at
    least -tol, which puts t* within tol above it.  As k <= (m + 1) / 2,
    T_{k-1} is a block of T_{m-k}, so T_{k-1} - lam_1 I >= 0 and S(t) >= t I
    - ||c||^2 / t: the first u is taken at ||c||, above t*.
    Everything is in units of a power of 2 near the largest |lam_j| and
    |entry| of R, so nothing overflows, and tol is 4 eps."""
    n, p = f.n, f.shape[0]
    k = max(1, m // 2)
    top, d = word_count(n, k - 1), word_count(n, m - k)
    q = p * top
    sub = assemble_T(f, m - k)
    lam, v = np.linalg.eigh(sub)
    border = tree_border(f, m, k)
    scale = max(-lam[0], lam[-1], np.abs(border).max())
    if not scale:
        return 0.0
    ex = max(math.frexp(scale)[1], -1021)  # 2^-ex x is exact, and at most 1 for |x| <= scale
    lam = lam * 2.0 ** -ex
    c = (border * 2.0 ** -ex).reshape(q, n**k, -1) @ v  # c[(a, u), s, j] = (R_s v_j)[a, u]
    head = sub.reshape(p, d, p, d)[:, :top, :, :top].reshape(q, q) * 2.0 ** -ex  # T_{k-1}
    low, tol = lam[0], 4.0 * np.finfo(float).eps
    delta = lam - low
    eye, flat = np.eye(q), c.reshape(q, -1)
    e0, flat_h = head - low * eye, adjoint(flat)
    t = math.sqrt(np.vdot(c, c).real)
    lower = False  # whether t is a lower bound on t*
    while t > 0.0:
        w, u = np.linalg.eigh(e0 + t * eye - (c / (delta + t)).reshape(q, -1) @ flat_h)
        if lower and w[0] >= -tol:
            break
        u = u[:, 0]
        z = np.abs(u.conj() @ flat).reshape(-1, d * p)
        # S has a pole at t = 0 when the border meets T_{m-k}'s lowest eigenvectors
        new = max(secular_root(delta, z, np.vdot(u, e0 @ u).real, t, tol), tol)
        if lower and new <= t:
            break
        t, lower = new, True
    return math.ldexp(low - t, ex)


def tm_positivity(f, tol, m=None):
    """TmPositivity of T_m for a square series f at level m (default
    f.cutoff), from its own coefficients: the one place that picks the
    dense or the factored path for positivity.  A non-finite tol is an
    InputError, raised before anything is assembled or factored; a
    negative one asks for T_m >= |tol| I.  On the dense side min_eig is
    eigvalsh's of the assembled T_m below side DEEP_DIM, for T_0 = b_0 and
    for the chain n = 1, whose T_{m-1} is hardly smaller (past the side cap
    assemble_T refuses it), and tree_min_eig's above (from T_{m-k}, k tree
    levels down, within a few eps ||T_m|| of eigvalsh).  Above it certify
    starts from [lambda_min(b_0) - 2 sum_k slice_k, lambda_min(b_0)] (b_0 is a
    principal block, degree k has norm <= 2 slice_k), cut at -tol by the
    verdict, and every bracket end is an inertia count of T_m - mu I.  Each
    factorisation that reaches level m guesses the next mu by a Newton step
    on the last pivot (Cybenko-Van Loan): with f, v its smallest eigenvalue
    and unit eigenvector and Z = Z^(m), mu + f / (1 + ||Z v||^2) is the
    Rayleigh quotient of T_m at [v; -Z v], so it is never below lambda_min(T_m)."""
    if not math.isfinite(tol):
        raise InputError(f"tolerance {tol} is not finite")
    m = f.cutoff if m is None else m
    dim = word_count(f.n, m) * f.shape[0]
    if dense_decides(f.n, dim):
        tree = f.n > 1 and m and dim >= DEEP_DIM
        me = tree_min_eig(f, m) if tree else float(np.linalg.eigvalsh(assemble_T(f, m))[0])
        return TmPositivity(me >= -tol, me, dim, tol)
    factor = shifted_factor(f, m)

    def probe(mu):
        fac = factor(-mu, stop=True)
        if fac.levels < m:
            return fac.is_psd, None
        low, _, zu = fac.newton()
        return fac.is_psd, mu + low / (1.0 + np.vdot(zu, zu).real)

    feasible, guess = probe(-tol)
    w = eigh_hermitian(f.constant_term())[0].tolist()
    slices = sum(f.degree_slice_norm(k) for k in f.blocks if 0 < k <= m)
    side = max if feasible else min
    lo, hi = certify(probe, side(w[0] - 2.0 * slices, -tol), side(w[0], -tol),
                     MIN_EIG_RTOL * (max(-w[0], w[-1]) + slices), guess)
    return TmPositivity(feasible, lo, dim, tol, hi - lo)
