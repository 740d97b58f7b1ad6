"""Plain-numpy reference arithmetic shared by the fixture generator and the
output checker.

Nothing here imports freefock: fixtures get their verdicts by construction
and outputs are checked against independent sums, so a defect in the
package cannot hide itself.  Conventions follow the package's JSON formats:
words are digit strings ("" is the empty word), complex numbers are
[re, im] pairs, matrices are row-major nested lists of them, and operator
sums are coefficient-major (coefficient (x) tuple word).
"""

from __future__ import annotations

import itertools

import numpy as np


def words(n, max_deg):
    """All words of length <= max_deg over letters 1..n, graded-lex."""
    out = []
    for k in range(max_deg + 1):
        out.extend("".join(str(i) for i in w) for w in itertools.product(range(1, n + 1), repeat=k))
    return out


def mat_to_json(m):
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def json_to_mat(v):
    a = np.asarray(v, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def coeffs_to_json(coeffs):
    return {w: mat_to_json(c) for w, c in coeffs.items()}


def json_to_coeffs(obj):
    return {w: json_to_mat(v) for w, v in obj.items()}


def random_unitary(rng, p):
    z = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def nilpotent_tuple(rng, n, dim, row_norm):
    """Strictly upper-triangular tuple with block-row norm row_norm."""
    mats = [np.triu(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)), 1)
            for _ in range(n)]
    scale = row_norm / np.linalg.norm(np.hstack(mats), 2)
    return [scale * m for m in mats]


def word_products(mats, ws):
    """X_w = X_{i1} ... X_{ik} for every word in ws, reusing prefixes."""
    dim = mats[0].shape[0]
    out = {"": np.eye(dim, dtype=complex)}
    for w in sorted(ws, key=len):
        for k in range(1, len(w) + 1):
            if w[:k] not in out:
                out[w[:k]] = out[w[: k - 1]] @ mats[int(w[k - 1]) - 1]
    return out


def eval_sum(coeffs, mats):
    """sum_w A_w (x) X_w."""
    prods = word_products(mats, coeffs)
    return sum(np.kron(c, prods[w]) for w, c in coeffs.items())


def pluriharmonic_at(analytic, coanalytic, mats):
    """sum_w A_w (x) X_w + sum_w B_w (x) X_w^*."""
    prods = word_products(mats, list(analytic) + list(coanalytic))
    out = eval_sum(analytic, mats)
    for w, c in coanalytic.items():
        out = out + np.kron(c, prods[w].conj().T)
    return out


def series_product(f, g, cutoff):
    """Coefficients of f g truncated at cutoff; absent words are zero."""
    out = {}
    for u, a in f.items():
        for v, b in g.items():
            if len(u) + len(v) <= cutoff:
                w = u + v
                out[w] = out.get(w, 0) + a @ b
    return out


def gram_norm(mats):
    """|| sum A^* A ||^(1/2): the column norm of a stack of matrices."""
    g = sum(m.conj().T @ m for m in mats)
    return float(np.sqrt(np.linalg.norm(g, 2)))
