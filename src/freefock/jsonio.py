"""JSON serialization for all wire types.

Complex numbers are [re, im] pairs, matrices row-major nested lists of
them, words digit strings ("121"; "" is the empty word).  Floats pass
through Python's shortest round-trip repr, so parse(dump(x)) == x.
Coefficient maps cross per degree, never per word or entry: a reader hands
each degree's letters and float array to ``series.from_degrees``, the one
check of outside coefficients; a writer decodes each degree's codes once.

Output is ``json.dumps(obj, indent=2)`` plus a newline, byte for byte, but
not by json's encoder, which runs in pure Python whenever it indents.
``matrix_to_json`` and the coefficient maps return list and dict subclasses
that stay plain JSON to every reader and tell ``to_bytes`` the shape of
their items, so each chunk of items is one ``%`` on a cached template.
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import math
import os

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


class _Matrix(list):
    """Nested lists of [re, im] pairs whose items all have item_shape."""

    __slots__ = ("item_shape",)


class _CoefficientMap(dict):
    """{digit string: matrix} whose values all have item_shape."""

    __slots__ = ("item_shape",)


def matrix_to_json(m):
    """Any complex array as nested lists of [re, im] pairs, by one tolist()."""
    m = np.asarray(m, dtype=complex)
    out = _Matrix(np.stack([m.real, m.imag], -1).tolist())
    out.item_shape = (*m.shape, 2)[1:]
    return out


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
    out = _CoefficientMap(sorted(entries))
    out.item_shape = (*f.shape, 2)
    return out


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
    except (OSError, ValueError, RecursionError) as exc:  # bad UTF-8, huge ints, deep nesting
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


_INDENT = "  "
_CHUNK_LEAVES = 128  # floats per %: bounds the text held beside the result; larger was no faster


def to_bytes(obj):
    """The output format: (json.dumps(obj, indent=2) + "\n").encode(), byte
    for byte; inf and nan raise ValueError and what json cannot write its
    TypeError, before anything is written.  Each piece of text is encoded
    into one buffer as it is made, so beside the result at most one chunk
    of _CHUNK_LEAVES floats is held as text."""
    raw = io.BytesIO()
    _write(obj, lambda piece: raw.write(piece.encode()), 0)
    raw.write(b"\n")
    return raw.getvalue()


def _write(o, write, level):
    """json's indent-2 text of o at nesting level, piece by piece, in
    json's order of type tests."""
    if isinstance(o, str):
        write(_quote(o))
    elif o is None:
        write("null")
    elif o is True:
        write("true")
    elif o is False:
        write("false")
    elif isinstance(o, int):
        write(int.__repr__(o))
    elif isinstance(o, float):
        write(_float(o))
    elif isinstance(o, (list, tuple, dict)):
        _write_container(o, write, level)
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


_quote = json.encoder.encode_basestring_ascii


def _float(x):
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)


def _key(k):
    """json's text of a dict key before quoting."""
    if isinstance(k, str):
        return k
    if isinstance(k, float):
        return _float(k)
    if k is True or k is False or k is None:
        return json.dumps(k)
    if isinstance(k, int):
        return int.__repr__(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _write_container(o, write, level):
    """A list, tuple or dict, a chunk of items at a time; for a _Matrix or
    _CoefficientMap each chunk is one % unless its items are no longer all
    nested lists of item_shape over floats (the object was changed)."""
    keyed = isinstance(o, dict)
    if not o:
        write("{}" if keyed else "[]")
        return
    items = iter(o.items() if keyed else o)
    shape = getattr(o, "item_shape", None)
    step = max(1, _CHUNK_LEAVES // max(1, math.prod(shape or ())))
    sep = ",\n" + _INDENT * (level + 1)
    write("{" if keyed else "[")
    for start in range(0, len(o), step):
        chunk = list(itertools.islice(items, step))
        text = None if shape is None else _render(chunk, keyed, shape, level)
        if text is not None:
            write(text if start else text[1:])
            continue
        for i, item in enumerate(chunk, start):
            write(sep if i else sep[1:])
            if keyed:
                write(_quote(_key(item[0])) + ": ")
                item = item[1]
            _write(item, write, level + 1)
    write("\n" + _INDENT * level + ("}" if keyed else "]"))


def _render(chunk, keyed, shape, level):
    """The text of a chunk of items (of (key, value) pairs when keyed), each
    after its ",\n" and indent, by one % on a cached template; None when a
    key is not a str or an item not nested lists of shape over floats."""
    keys, values = zip(*chunk) if keyed else ((), chunk)
    if keyed and set(map(type, keys)) != {str}:
        return None
    leaves = _leaves(values, shape)
    if leaves is None:
        return None
    if not all(map(math.isfinite, leaves)):
        _float(next(x for x in leaves if not math.isfinite(x)))
    if keyed:  # each key before its item's leaves
        size = len(leaves) // len(values)
        args = [None] * (len(leaves) + len(keys))
        args[::size + 1] = map(_quote, keys)
        for j in range(size):
            args[j + 1::size + 1] = leaves[j::size]
        leaves = args
    return (_template(shape, level, keyed) * len(values)) % tuple(leaves)


def _leaves(level, shape):
    """The floats of a sequence of nested lists of shape, in order; None
    unless every list is a plain list of the right length and every leaf a
    float (json writes tuples and float subclasses alike, _write takes them)."""
    for size in shape:
        if set(map(type, level)) != {list} or set(map(len, level)) != {size}:
            return None
        level = list(itertools.chain.from_iterable(level))
    return level if set(map(type, level)) == {float} else None


@functools.lru_cache(maxsize=256)
def _template(shape, level, keyed):
    """json's indent-2 text of one item at level + 1 after its ",\n" and
    indent, "%s: " for its key when keyed, and %r for each float leaf."""
    if shape:
        inner = _template(shape[1:], level + 1, False) * shape[0]
        inner = "[" + inner[1:] + "\n" + _INDENT * (level + 1) + "]"
    else:
        inner = "%r"
    return ",\n" + _INDENT * (level + 1) + ("%s: " if keyed else "") + inner


def write_json_atomic(obj, path):
    """Write to_bytes(obj) via a temp file in the target directory, then
    rename; no file is made when obj does not serialise.  The temporary is
    made with mode 0o666, so the kernel applies the umask and the file gets
    the mode open() would give a new file."""
    data = to_bytes(obj)
    fd, tmp = _new_file(os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _new_file(directory):
    """(descriptor, name) of a new file tmp<random>.tmp in directory, opened
    for writing with mode 0o666 less the umask; a name taken already is
    drawn again."""
    while True:
        tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
        try:
            flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY | getattr(os, "O_BINARY", 0)
            return os.open(tmp, flags, 0o666), tmp
        except FileExistsError:
            continue
