"""JSON serialization for all wire types.

Complex numbers are [re, im] pairs, matrices row-major nested lists of
them, words digit strings ("121"; "" is the empty word).  Floats pass
through Python's shortest round-trip repr, so parse(dump(x)) == x.
"""

from __future__ import annotations

import cmath
import json
import os
import tempfile

import numpy as np

from .caratheodory import CaratheodoryProblem, ExtensionResult
from .errors import InputError
from .fock import OperatorTuple
from .pluriharmonic import PluriharmonicFn
from .series import FreeSeries
from .transforms import MomentFunctional
from .words import reverse, word_from_string, word_to_string


def complex_to_json(z):
    z = complex(z)
    return [z.real, z.imag]


def json_to_complex(v):
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise InputError(f"complex value must be [re, im], got {v!r}")
    try:
        z = complex(float(v[0]), float(v[1]))
    except (OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"complex value must be two numbers, got {v!r}") from exc
    if not cmath.isfinite(z):
        raise InputError(f"complex value must be finite, got {v!r}")
    return z


def matrix_to_json(m):
    m = np.asarray(m, dtype=complex)
    return [[complex_to_json(z) for z in row] for row in m]


def json_to_matrix(v):
    if not isinstance(v, list) or not v or not all(isinstance(r, list) for r in v):
        raise InputError("matrix must be a non-empty nested list")
    if not v[0] or any(len(r) != len(v[0]) for r in v):
        raise InputError("matrix rows must be non-empty and of equal length")
    return np.array([[json_to_complex(z) for z in row] for row in v], dtype=complex)


def _coeffs_to_json(coeffs):
    return {word_to_string(w): matrix_to_json(c) for w, c in sorted(coeffs.items())}


def _json_to_coeffs(obj, n):
    if not isinstance(obj, dict):
        raise InputError("coefficient map must be an object")
    return {word_from_string(k, n): json_to_matrix(v) for k, v in obj.items()}


def _json_to_moments(obj, n):
    """Coefficients that start at degree 1: the empty word is rejected."""
    coeffs = _json_to_coeffs(obj, n)
    if () in coeffs:
        raise InputError("these coefficients start at degree 1; the empty word is not allowed")
    return coeffs


def tuple_to_json(x):
    return {"n": x.n, "dim": x.dim, "matrices": [matrix_to_json(m) for m in x.matrices]}


def json_to_tuple(obj):
    try:
        mats = tuple(json_to_matrix(m) for m in obj["matrices"])
        declared = {k: int(obj[k]) for k in ("n", "dim") if k in obj}
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"bad operator tuple: {exc}") from exc
    t = OperatorTuple(mats)
    if declared.get("n", t.n) != t.n:
        raise InputError(f"declared n={obj['n']} but {t.n} matrices given")
    if declared.get("dim", t.dim) != t.dim:
        raise InputError(f"declared dim={obj['dim']} but matrices are {t.dim} square")
    return t


def series_to_json(f):
    return {
        "n": f.n,
        "cutoff": f.cutoff,
        "shape": list(f.shape),
        "coefficients": _coeffs_to_json(f.coeffs),
    }


def json_to_series(obj):
    try:
        n = int(obj["n"])
        cutoff = int(obj["cutoff"])
        shape = tuple(int(s) for s in obj["shape"])
        coeffs = _json_to_coeffs(obj["coefficients"], n)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"bad series: {exc}") from exc
    return FreeSeries(n, cutoff, shape, coeffs)


def pluriharmonic_to_json(h):
    return {
        "n": h.n,
        "cutoff": h.cutoff,
        "shape": list(h.shape),
        "analytic": _coeffs_to_json(h.analytic.coeffs),
        "coanalytic": _coeffs_to_json(h.coanalytic.coeffs),
    }


def json_to_pluriharmonic(obj):
    try:
        n = int(obj["n"])
        cutoff = int(obj["cutoff"])
        shape = tuple(int(s) for s in obj["shape"])
        analytic = _json_to_coeffs(obj["analytic"], n)
        coanalytic = _json_to_moments(obj.get("coanalytic", {}), n)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"bad pluriharmonic function: {exc}") from exc
    return PluriharmonicFn(*(FreeSeries(n, cutoff, shape, c) for c in (analytic, coanalytic)))


def functional_to_json(mu):
    """forward[t] = mu(R_t) = B_~t and backward[t] = mu(R_t*) = A_~t of the symbol."""
    a, b = mu.symbol.analytic.coeffs, mu.symbol.coanalytic.coeffs
    return {
        "n": mu.n,
        "cutoff": mu.cutoff,
        "unit": matrix_to_json(mu.unit),
        "forward": _coeffs_to_json({reverse(w): c for w, c in b.items()}),
        "backward": _coeffs_to_json({reverse(w): c for w, c in a.items() if w}),
    }


def json_to_functional(obj):
    try:
        n = int(obj["n"])
        cutoff = int(obj["cutoff"])
        unit = json_to_matrix(obj["unit"])
        forward = _json_to_moments(obj.get("forward", {}), n)
        backward = _json_to_moments(obj.get("backward", {}), n)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"bad moment functional: {exc}") from exc
    analytic = {(): unit, **{reverse(t): c for t, c in backward.items()}}
    coanalytic = {reverse(t): c for t, c in forward.items()}
    series = (FreeSeries(n, cutoff, unit.shape, c) for c in (analytic, coanalytic))
    return MomentFunctional(PluriharmonicFn(*series))


def problem_to_json(prob):
    return {
        "n": prob.n,
        "m": prob.m,
        "block_size": prob.block_size,
        "coefficients": _coeffs_to_json(prob.data.coeffs),
    }


def _constant_shape(coeffs):
    """Shape of b_0, which problem and extension JSON must carry."""
    if () not in coeffs:
        raise InputError("missing constant coefficient b_0")
    return coeffs[()].shape


def json_to_problem(obj):
    try:
        n = int(obj["n"])
        m = int(obj["m"])
        coeffs = _json_to_coeffs(obj["coefficients"], n)
        block = int(obj.get("block_size", 0))
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"bad problem: {exc}") from exc
    p = _constant_shape(coeffs)[0]
    if block and block != p:
        raise InputError("block_size disagrees with coefficient shape")
    return CaratheodoryProblem(FreeSeries(n, m, (p, p), coeffs))


def extension_to_json(ext):
    return {
        "target_degree": ext.series.cutoff,
        "coefficients": _coeffs_to_json(ext.series.coeffs),
        "certificate": dict(ext.certificate),
    }


def json_to_extension(obj, n):
    try:
        coeffs = _json_to_coeffs(obj["coefficients"], n)
        target = int(obj["target_degree"])
        cert = dict(obj.get("certificate", {}))
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"bad extension result: {exc}") from exc
    return ExtensionResult(FreeSeries(n, target, _constant_shape(coeffs), coeffs), cert)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def write_json_atomic(obj, path):
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, allow_nan=False)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
