"""JSON serialization for all wire types.

Complex numbers are [re, im] pairs, matrices row-major nested lists of
them, words digit strings ("121"; "" is the empty word).  Floats pass
through Python's shortest round-trip repr, so parse(dump(x)) == x.
Coefficient maps cross per degree, never per word or entry: a reader hands
each degree's letters and float array to ``series.from_degrees``, the one
check of outside coefficients; a writer decodes each degree's codes once.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import tempfile

import numpy as np

from .caratheodory import CaratheodoryProblem, ExtensionResult
from .errors import InputError
from .fock import OperatorTuple
from .pluriharmonic import PluriharmonicFn
from .series import from_degrees
from .transforms import MomentFunctional
from .words import decode_letters


def _complex_array(v, ndim, what):
    """The complex array of [re, im] pairs nested ndim lists deep, read as one
    float array: no empty axis, all finite, both parts assigned exactly."""
    try:
        a = np.array(v, dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"{what} must be nested lists of [re, im] number pairs: {exc}") from None
    if a.ndim != ndim + 1 or a.shape[-1] != 2 or not a.size:
        raise InputError(f"{what} must be non-empty {ndim}-deep nested lists of [re, im] pairs")
    if not np.isfinite(a).all():
        raise InputError(f"{what} values must be finite")
    out = np.empty(a.shape[:-1], dtype=complex)
    out.real, out.imag = a[..., 0], a[..., 1]
    return out


def _integer(v, what):
    """v if it is a JSON integer; a bool, float or string is refused, not truncated."""
    if type(v) is not int:
        raise InputError(f"{what} must be an integer, got {v!r:.40}")
    return v


def matrix_to_json(m):
    """Any complex array as nested lists of [re, im] pairs, by one tolist()."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def json_to_matrix(v):
    return _complex_array(v, 2, "matrix")


def _blocks_to_json(f):
    """{digit string: matrix} of f's coefficients in word order (digit
    strings sort exactly like the word tuples)."""
    entries = []
    for k, (codes, c) in f.blocks.items():  # letters as ASCII digits, read k bytes at a time
        digits = (decode_letters(codes, f.n, k) + ord("0")).astype(np.uint8)
        keys = digits.view(f"S{k}")[:, 0].astype(str).tolist() if k else [""]
        entries += zip(keys, matrix_to_json(c))
    return dict(sorted(entries))


def _json_to_degrees(obj, moments=False):
    """{k: (letters, stack)} of a JSON coefficient map for from_degrees, keys
    grouped by length; moments start at degree 1, so a degree-0 block is an error."""
    if not isinstance(obj, dict):
        raise InputError("coefficient map must be an object")
    degrees = {}
    for k, keys in itertools.groupby(sorted(sorted(obj), key=len), len):
        keys = list(keys)
        text = "".join(keys)
        if k and not (text.isascii() and text.isdigit()):
            bad = next(w for w in keys if not (w.isascii() and w.isdigit()))
            raise InputError(f"word string {bad!r} is not ASCII digits")
        letters = np.frombuffer(text.encode(), dtype=np.uint8).reshape(len(keys), k) - ord("0")
        degrees[k] = letters, _complex_array(list(map(obj.__getitem__, keys)), 3, "coefficients")
    if moments and 0 in degrees:
        raise InputError("these coefficients start at degree 1; the empty word is not allowed")
    return degrees


def tuple_to_json(x):
    return {"n": x.n, "dim": x.dim, "matrices": matrix_to_json(x.matrices)}


def json_to_tuple(obj):
    try:
        mats = _complex_array(obj["matrices"], 3, "operator tuple matrices")
        declared = {k: _integer(obj[k], k) for k in ("n", "dim") if k in obj}
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad operator tuple: {exc}") from exc
    t = OperatorTuple(tuple(mats))
    if declared.get("n", t.n) != t.n:
        raise InputError(f"declared n={obj['n']} but {t.n} matrices given")
    if declared.get("dim", t.dim) != t.dim:
        raise InputError(f"declared dim={obj['dim']} but matrices are {t.dim} square")
    return t


def series_to_json(f):
    return {"n": f.n, "cutoff": f.cutoff, "shape": list(f.shape), "coefficients": _blocks_to_json(f)}


def json_to_series(obj):
    try:
        n, cutoff = (_integer(obj[k], k) for k in ("n", "cutoff"))
        shape = tuple(_integer(s, "shape entry") for s in obj["shape"])
        degrees = _json_to_degrees(obj["coefficients"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad series: {exc}") from exc
    return from_degrees(n, cutoff, shape, degrees)


def pluriharmonic_to_json(h):
    return {"n": h.n, "cutoff": h.cutoff, "shape": list(h.shape),
            "analytic": _blocks_to_json(h.analytic), "coanalytic": _blocks_to_json(h.coanalytic)}


def json_to_pluriharmonic(obj):
    try:
        n, cutoff = (_integer(obj[k], k) for k in ("n", "cutoff"))
        shape = tuple(_integer(s, "shape entry") for s in obj["shape"])
        analytic = _json_to_degrees(obj["analytic"])
        coanalytic = _json_to_degrees(obj.get("coanalytic", {}), moments=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad pluriharmonic function: {exc}") from exc
    return PluriharmonicFn(*(from_degrees(n, cutoff, shape, d) for d in (analytic, coanalytic)))


def functional_to_json(mu):
    """forward[t] = mu(R_t) = B_~t and backward[t] = mu(R_t*) = A_~t of the symbol."""
    h = mu.symbol
    return {"n": mu.n, "cutoff": mu.cutoff, "unit": matrix_to_json(mu.unit),
            "forward": _blocks_to_json(h.coanalytic.reversed()),
            "backward": _blocks_to_json(h.analytic.without_constant().reversed())}


def json_to_functional(obj):
    try:
        n, cutoff = (_integer(obj[k], k) for k in ("n", "cutoff"))
        unit = json_to_matrix(obj["unit"])
        forward = _json_to_degrees(obj.get("forward", {}), moments=True)
        backward = _json_to_degrees(obj.get("backward", {}), moments=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad moment functional: {exc}") from exc
    backward[0] = np.zeros((1, 0), dtype=np.int64), unit[None]  # A_0 = mu(I)
    series = (from_degrees(n, cutoff, unit.shape, d).reversed() for d in (backward, forward))
    return MomentFunctional(PluriharmonicFn(*series))


def problem_to_json(prob):
    return {"n": prob.n, "m": prob.m, "block_size": prob.block_size,
            "coefficients": _blocks_to_json(prob.data)}


def _constant_shape(degrees):
    """Shape of b_0, which problem and extension JSON must carry."""
    if 0 not in degrees:
        raise InputError("missing constant coefficient b_0")
    return degrees[0][1].shape[1:]


def json_to_problem(obj):
    try:
        n, m = (_integer(obj[k], k) for k in ("n", "m"))
        degrees = _json_to_degrees(obj["coefficients"])
        block = _integer(obj.get("block_size", 0), "block_size")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad problem: {exc}") from exc
    p = _constant_shape(degrees)[0]
    if block and block != p:
        raise InputError("block_size disagrees with coefficient shape")
    return CaratheodoryProblem(from_degrees(n, m, (p, p), degrees))


def extension_to_json(ext):
    return {"target_degree": ext.series.cutoff, "coefficients": _blocks_to_json(ext.series),
            "certificate": dict(ext.certificate)}


def json_to_extension(obj, n):
    try:
        degrees = _json_to_degrees(obj["coefficients"])
        target = _integer(obj["target_degree"], "target_degree")
        cert = dict(obj.get("certificate", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad extension result: {exc}") from exc
    return ExtensionResult(from_degrees(n, target, _constant_shape(degrees), degrees), cert)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def to_bytes(obj):
    """The output format: JSON with indent 2 and a trailing newline, as
    bytes; inf and nan raise ValueError before anything is written.  The
    pieces stream through one buffer (json.dumps would hold 5 times as much)."""
    text = io.TextIOWrapper(io.BufferedWriter(raw := io.BytesIO()), encoding="utf-8")
    json.dump(obj, text, indent=2, allow_nan=False)
    text.write("\n")
    text.flush()
    return raw.getvalue()


def write_json_atomic(obj, path):
    """Write to_bytes(obj) via a temp file in the target directory, then
    rename; no file is made when obj does not serialise."""
    data = to_bytes(obj)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
