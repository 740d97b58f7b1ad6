"""Multi-analytic operators A = f(S^(m)) = sum_{|w|<=m} f_w (x) S_w applied
without forming them, and ||A|| certified by one nested Schur
factorisation (toeplitz.nested_factor).

In last-letter tree order A_j = [[f_0, 0], [c, I_n (x) A_{j-1}]] with
c^(i)[v] = f_{v i}, so sigma^2 I - A_j* A_j is nested_factor's M_j with
alpha_j = sigma^2 I - sum_{|w|<=j} f_w* f_w and beta_j^(i)* =
-A_{j-1}* c^(i), given in graded order (nested_factor takes them to tree
order): its negative pivots count the singular values of A above sigma.
A plain Lanczos run on A*A proposes a vector x; the value is the explicit
ratio ||A x|| / ||x||, never above ||A||, and one factorisation at sigma =
value (1 + NORM_RTOL) certifies it from above.  These two, not the Lanczos
basis, guard every reported value.

``hinf_norm`` (so ``freefock norm``, ``caratheodory.cf_check`` and
``caratheodory.cayley_route``) is the one place that picks the path for a
norm: the dense SVD of f(S^(m)) up to NORM_DENSE_DIM
(toeplitz.dense_decides), this module above.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import InputError, ScopeError
from .linalg import check_entries, operator_norm
from .series import eval_at_creation
from .toeplitz import dense_decides, nested_factor
from .words import join_indices, word_count

# At or below this side d p the dense SVD of f(S^(m)) gives its norm; above
# it the structured path does (n = 1 stays dense, as for T_m).  SVD against
# structured, one thread, medians of 15, ms: 1.40 / 1.39 at d p = 121 (n = 3),
# 1.56 / 2.95 at 126 (n = 2, p = 2), 1.69 / 2.06 at 127 (n = 2), 3.25 / 1.69
# at 170 (n = 4, p = 2), 7.58 / 2.28 at 242 (n = 3, p = 2): the crossover lies
# between 127 and 170, and moving 100 changes which outputs carry norm_rtol.
NORM_DENSE_DIM = 100

# ||f(S^(m))|| from the structured path is certified within this relative
# tolerance: the reported value v is ||A x|| / ||x|| for an explicit x, and
# sigma^2 I - A*A at sigma = v (1 + NORM_RTOL) has no negative or zero pivot.
NORM_RTOL = 1e-9

# Largest Lanczos run on A*A (its one basis is also capped at MAX_DIM^2
# entries), and the most rounds of certification (each failed round
# restarts from a vector that beats the failed sigma).
LANCZOS_STEPS = 64
NORM_ROUNDS = 20


class CertifiedNorm(NamedTuple):
    value: float  # ||A x|| / ||x|| for an explicit x, so at most ||A||
    rtol: float | None  # ||A|| <= value (1 + rtol) by a factorisation; None: dense SVD
    starts: int  # Lanczos runs: one, plus one per failed certification


class MultiAnalytic:
    """A = f(S^(m)) = sum_{|w|<=m} f_w (x) S_w for a square series f,
    applied without forming it: (A x)_u = sum_{u = w v} f_w x_v on blocks
    x of shape (d_k, p, q) over the graded word basis of P^(k), k <= m.

    In graded order the word w v sits at start(|w| + |v|) + code(w) n^|v|
    + code(v); for each degree a of the words w that is one (words of
    degree a, d_{m-a}) index array (words.join_indices), and two words of
    one degree never reach the same u, so a degree is one batched product
    and one scatter without collisions (the adjoint gathers through the
    same array).  The first d_{k-a} columns serve A_k = f(S^(k)), the
    compression of A to P^(k).  The size limit caps the (m + 1) p^2 d
    entries of these index arrays and of the coefficients, before anything
    is allocated."""

    def __init__(self, f, m):
        if not f.is_square():
            raise InputError(f"evaluation needs square coefficients, got {f.shape}")
        n, p = f.n, f.shape[0]
        self.n, self.m, self.p = n, m, p
        check_entries((m + 1) * word_count(n, m) * p * p, "multi-analytic operator")
        self.sizes = [word_count(n, k) for k in range(m + 1)]
        self.terms = []
        gram = np.zeros((m + 1, p, p), dtype=complex)
        for a, (codes, c) in f.blocks.items():
            if a <= m:
                # uncached: one operator per norm, at sizes the shared cache should not keep
                target, k = join_indices.__wrapped__(n, m, a)[codes], len(codes)
                # rows (w, i) of the f_w, and columns (j, w) of the f_w*
                adj = c.conj().transpose(2, 1, 0).reshape(p, p * k)
                self.terms.append((a, c.reshape(k * p, p), adj, target))
                gram[a] = np.einsum("wji,wjk->ik", c.conj(), c)
        gram = np.cumsum(gram, axis=0)
        self.gram = (gram + gram.conj().swapaxes(1, 2)) / 2.0  # sum_{|w|<=j} f_w* f_w
        self._graded, self._betas = f.graded_stack(m), {}

    def apply(self, x):
        """A x for x of shape (d, p, q): per degree one product of the
        stacked f_w with the columns of x."""
        p, q = self.p, x.shape[-1]
        out = np.zeros(x.shape, dtype=complex)
        for a, lhs, _, target in self.terms:
            cols = target.shape[1]
            prod = lhs @ x[:cols].transpose(1, 0, 2).reshape(p, cols * q)
            out[target] += prod.reshape(-1, p, cols, q).transpose(0, 2, 1, 3)
        return out

    def apply_adjoint(self, y, k=None):
        """A_k* y for y of shape (d_k, p, q), k = m by default: per degree
        one product of the f_w* side by side with the gathered rows of y."""
        k = self.m if k is None else k
        p, q = self.p, y.shape[-1]
        out = np.zeros((self.sizes[k], p, q), dtype=complex)
        for a, _, rhs, target in self.terms:
            if a <= k:
                cols = self.sizes[k - a]
                rows = y[target[:, :cols]].transpose(2, 0, 1, 3).reshape(-1, cols * q)
                out[:cols] += (rhs @ rows).reshape(p, cols, q).transpose(1, 0, 2)
        return out

    def factor(self, sigma, stop=False):
        """nested_factor of sigma^2 I - A*A (module docstring); pivot
        eigenvalues within PIVOT_RTOL sigma^2 count as zero."""
        s2, eye = sigma * sigma, np.eye(self.p)
        return nested_factor(self.n, self.p, self.m, lambda j: s2 * eye - self.gram[j],
                             self._beta, s2, stop=stop)

    def _beta(self, j):
        """-A_{j-1}* c^(i) in graded order, the same for every sigma (kept)."""
        cached = self._betas.get(j)
        if cached is None:
            n, p, d = self.n, self.p, self.sizes[j - 1]
            # c^(i)[v] = f_{v i}, and the graded index of v i is n g(v) + i
            c = self._graded[1:self.sizes[j]].reshape(d, n, p, p)
            y = -self.apply_adjoint(c.transpose(0, 2, 1, 3).reshape(d, p, n * p), j - 1)
            cached = self._betas[j] = y.reshape(d, p, n, p).transpose(2, 0, 1, 3)
        return cached


def _lanczos(op, x0, steps):
    """Symmetric Lanczos on A*A from x0 by the three-term recurrence alone
    (Golub-Van Loan, ch. 10: the Krylov space of Golub-Kahan on A, in one
    basis Q): A*A Q = Q T with T tridiagonal.  T is PSD, so its SVD is its
    eigendecomposition (and far cheaper than eigh at this size).  Q loses
    orthogonality as Ritz pairs converge, which yields ghost copies of
    values, not wrong ones (Paige 1976; Parlett and Scott 1979), and voids
    Parlett's gap bound r^2 / (theta^2 - theta_2^2) on the top Ritz pair
    (theta^2, y), r = beta_k |y_k|: it only says when to try the
    certificate.  Stops when that is below 1e-15 of the gap or r below
    1e-13 theta^2, on breakdown, or after steps; returns x = Q y."""
    shape, size = x0.shape, x0.size
    steps = max(1, min(steps, size))
    Q = np.empty((steps, size), dtype=complex)  # rows are written before they are read
    alpha, beta = np.zeros(steps), np.zeros(steps)
    Q[0] = x0.ravel() / np.linalg.norm(x0)
    for k in range(steps):
        w = op.apply_adjoint(op.apply(Q[k].reshape(shape + (1,)))).ravel()
        alpha[k] = np.vdot(Q[k], w).real
        w -= alpha[k] * Q[k] + (beta[k - 1] * Q[k - 1] if k else 0.0)
        beta[k] = np.linalg.norm(w)
        T = np.diag(alpha[: k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
        y, s, _ = np.linalg.svd(T)
        res, gap = beta[k] * abs(y[k, 0]), s[0] - (s[1] if k else 0.0)
        done = beta[k] <= 1e-14 * s[0] or res <= 1e-13 * s[0] or res**2 <= 1e-15 * gap * s[0]
        if done or k + 1 == steps:
            return (y[:, 0] @ Q[: k + 1]).reshape(shape)
        Q[k + 1] = w / beta[k]


def certified_norm(f, m):
    """||f(S^(m))|| for a square series f within NORM_RTOL, structured.

    The series is scaled by a power of two so its largest entry is about
    one (exact).  A Lanczos run from e_0 (x) v, v the top eigenvector of
    G = sum f_w* f_w, gives a nondecreasing value whose first step is
    ||G||^(1/2); the value is ||A x|| / ||x|| for its Ritz vector.  One
    factorisation of sigma^2 I - A*A at sigma = value (1 + NORM_RTOL) then
    certifies it when no pivot is negative or zero.  Otherwise its first
    negative pivot s_j, with smallest eigenpair (f, u), gives the vector
    [u; -Z^(j) u] on P^(j) (SchurFactor.newton, in graded order): x* M_j x
    = f < 0, and A_j is the compression of A to P^(j), so ||A x|| > sigma
    ||x||.  A new run starts there; the value never goes uncertified."""
    big = max((float(np.max(np.abs(c))) for k, (_, c) in f.blocks.items() if k <= m), default=0.0)
    if big == 0.0:
        return CertifiedNorm(0.0, NORM_RTOL, 0)
    e = math.frexp(big)[1]
    op = MultiAnalytic(f.scale(math.ldexp(1.0, -e)), m)
    steps = max(1, min(LANCZOS_STEPS, linalg.MAX_DIM**2 // (op.sizes[-1] * op.p)))
    x = np.zeros((op.sizes[-1], op.p), dtype=complex)
    x[0] = np.linalg.eigh(op.gram[-1])[1][:, -1]
    value = _ratio(op, x)
    for start in range(1, NORM_ROUNDS + 1):
        value = max(value, _ratio(op, _lanczos(op, x, steps)))
        fac = op.factor(value * (1.0 + NORM_RTOL), stop=True)
        if fac.levels == m and fac.inertia()[:2] == (0, 0):
            return CertifiedNorm(math.ldexp(value, e), NORM_RTOL, start)
        low, u, zu = fac.newton()  # [u; -Z u] beats sigma when low < 0
        x = fac.graded(np.concatenate([u[None], -zu.reshape(-1, op.p)]), op.sizes[-1])
        if low >= -fac.cut or (gain := _ratio(op, x)) <= value:
            break
        value = gain
    raise ScopeError(f"the structured norm could not be certified within {NORM_RTOL:.0e}")


def _ratio(op, x):
    """||A x|| / ||x||."""
    return float(np.linalg.norm(op.apply(x[..., None])) / np.linalg.norm(x))


def hinf_norm(f, m):
    """||f(S^(m))|| as a CertifiedNorm: nondecreasing in m, a lower bound
    for the sup norm.  The dense SVD (rtol None) up to NORM_DENSE_DIM,
    certified_norm within its rtol above."""
    if not f.is_square():
        raise InputError("evaluation needs square coefficients")
    if dense_decides(f.n, f.shape[0] * word_count(f.n, m), NORM_DENSE_DIM):
        return CertifiedNorm(operator_norm(eval_at_creation(f, m)), None, 0)
    return certified_norm(f, m)
