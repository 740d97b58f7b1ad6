"""JSON serialization for all wire types.

Complex numbers are [re, im] pairs, matrices row-major nested lists of
them, words digit strings ("121"; "" is the empty word).  Floats pass
through Python's shortest round-trip repr, so parse(dump(x)) == x.
A coefficient map is read in one piece, its leaves walked by the writer's
``_leaves`` and each a JSON number (an int or a float, not a string or a
bool), and goes to ``series.from_degrees``, the one check of outside
coefficients; a writer decodes each degree's codes once.

Output is ``json.dumps(obj, indent=2)`` plus a newline, byte for byte.
json's encoder writes the structure, but it runs in pure Python whenever it
indents, so the coefficient blocks go around it: ``matrix_to_json`` and the
coefficient maps return list and dict subclasses that stay plain JSON to
every reader and tell ``to_bytes`` the shape of their items.  Each block
stands in json's text as a marker and is written there, a chunk of items
per ``%`` on a cached template.  The one fallback is json for the whole
payload: when a block was changed after it was made, or when a string of
the payload reads as a marker.
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
    """The complex array of [re, im] pairs nested ndim lists deep, no axis empty:
    the shape is read down the first items, and the writer's _leaves checks every
    list and leaf (an int or a float) against it.  Its callers check finiteness."""
    shape, item = [], v
    while isinstance(item, list) and item and len(shape) <= ndim:
        shape.append(len(item))
        item = item[0]
    leaves = _leaves(v, shape[1:], {int, float}) if len(shape) == ndim + 1 and shape[-1] == 2 else None
    if leaves is None:
        raise InputError(f"{what} must be non-empty {ndim}-deep nested lists of [re, im] number pairs")
    try:
        return np.array(leaves, dtype=float).view(complex).reshape(shape[:-1])
    except OverflowError as exc:  # an int past the float range
        raise InputError(f"{what} must be nested lists of [re, im] number pairs: {exc}") from None


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
    m = _complex_array(v, 2, "matrix")
    if not np.isfinite(m).all():
        raise InputError("matrix values must be finite")
    return m


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


def _json_to_map(obj, moments=False):
    """(lengths, letters, stack) of a JSON coefficient map for from_degrees, in
    word order; moments start at degree 1, so the empty word is an error."""
    if not isinstance(obj, dict):
        raise InputError("coefficient map must be an object")
    keys = sorted(sorted(obj), key=len)
    text = "".join(keys)
    if not (text.isascii() and text.isdigit()) and text:
        bad = next(w for w in keys if not (w.isascii() and w.isdigit()) and w)
        raise InputError(f"word string {bad!r} is not ASCII digits")
    if moments and "" in obj:
        raise InputError("these coefficients start at degree 1; the empty word is not allowed")
    c = _complex_array(list(map(obj.__getitem__, keys)), 3, "coefficients") if keys else ()
    return list(map(len, keys)), np.frombuffer(text.encode(), dtype=np.uint8) - ord("0"), c


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
        coefficients = _json_to_map(obj["coefficients"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad series: {exc}") from exc
    return from_degrees(n, cutoff, shape, *coefficients)


def pluriharmonic_to_json(h):
    return {"n": h.n, "cutoff": h.cutoff, "shape": list(h.shape),
            "analytic": _blocks_to_json(h.analytic), "coanalytic": _blocks_to_json(h.coanalytic)}


def json_to_pluriharmonic(obj):
    try:
        n, cutoff = (_integer(obj[k], k) for k in ("n", "cutoff"))
        shape = tuple(_integer(s, "shape entry") for s in obj["shape"])
        analytic = _json_to_map(obj["analytic"])
        coanalytic = _json_to_map(obj.get("coanalytic", {}), moments=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad pluriharmonic function: {exc}") from exc
    return PluriharmonicFn(*(from_degrees(n, cutoff, shape, *d) for d in (analytic, coanalytic)))


def functional_to_json(mu):
    """forward[t] = mu(R_t) = B_~t and backward[t] = mu(R_t*) = A_~t of the symbol."""
    h = mu.symbol
    return {"n": mu.n, "cutoff": mu.cutoff, "unit": matrix_to_json(mu.unit),
            "forward": _blocks_to_json(h.coanalytic.reversed()),
            "backward": _blocks_to_json(h.analytic.without_constant().reversed())}


def json_to_functional(obj):
    try:
        n, cutoff = (_integer(obj[k], k) for k in ("n", "cutoff"))
        unit = _complex_array(obj["unit"], 2, "unit")  # A_0 = mu(I), the head of backward
        forward = _json_to_map(obj.get("forward", {}), moments=True)
        lengths, letters, c = _json_to_map(obj.get("backward", {}), moments=True)
        backward = [0, *lengths], letters, np.concatenate([unit[None], c]) if lengths else unit[None]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad moment functional: {exc}") from exc
    series = (from_degrees(n, cutoff, unit.shape, *d).reversed() for d in (backward, forward))
    return MomentFunctional(PluriharmonicFn(*series))


def problem_to_json(prob):
    return {"n": prob.n, "m": prob.m, "block_size": prob.block_size,
            "coefficients": _blocks_to_json(prob.data)}


def _constant_shape(coefficients):
    """Shape of b_0, which problem and extension JSON must carry."""
    if coefficients[0][:1] != [0]:
        raise InputError("missing constant coefficient b_0")
    return coefficients[2].shape[1:]


def json_to_problem(obj):
    try:
        n, m = (_integer(obj[k], k) for k in ("n", "m"))
        coefficients = _json_to_map(obj["coefficients"])
        block = _integer(obj.get("block_size", 0), "block_size")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad problem: {exc}") from exc
    p = _constant_shape(coefficients)[0]
    if block and block != p:
        raise InputError("block_size disagrees with coefficient shape")
    return CaratheodoryProblem(from_degrees(n, m, (p, p), *coefficients))


def extension_to_json(ext):
    return {"target_degree": ext.series.cutoff, "coefficients": _blocks_to_json(ext.series),
            "certificate": dict(ext.certificate)}


def json_to_extension(obj, n):
    try:
        coefficients = _json_to_map(obj["coefficients"])
        target = _integer(obj["target_degree"], "target_degree")
        cert = dict(obj.get("certificate", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad extension result: {exc}") from exc
    return ExtensionResult(from_degrees(n, target, _constant_shape(coefficients), *coefficients), cert)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # bad UTF-8, huge ints, deep nesting
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


_INDENT = "  "
_CHUNK_LEAVES = 128  # floats per %: bounds the text held beside the result; larger was no faster
_MARK = json.dumps("\x00")  # where a block goes in json's text
_CONTAINERS = (list, tuple, dict)
_quote = json.encoder.encode_basestring_ascii


def to_bytes(obj):
    """The output format: (json.dumps(obj, indent=2) + "\n").encode(), byte
    for byte; inf and nan raise ValueError and what json cannot write its
    TypeError, before anything is written.  json writes the structure, with
    each nonempty matrix or coefficient map as the marker _MARK; each block
    goes in at its marker, _CHUNK_LEAVES floats per % into one buffer, so
    beside the result only json's text and one chunk of floats are held as
    text.  json writes the whole payload instead when a block was changed
    after it was made, or when the text holds more markers than there are
    blocks (a payload string "\\x00", or one ending in '"\\x00')."""
    blocks = []
    parts = json.dumps(_marked(obj, blocks, 0), indent=2, allow_nan=False).split(_MARK)
    if len(parts) == len(blocks) + 1:
        raw = io.BytesIO()
        raw.write(parts[0].encode())
        for (block, level), part in zip(blocks, parts[1:]):
            if not _write_block(block, level, raw.write):
                break
            raw.write(part.encode())
        else:
            raw.write(b"\n")
            return raw.getvalue()
    return (json.dumps(obj, indent=2, allow_nan=False) + "\n").encode()


def _marked(o, blocks, level):
    """A copy of o for json with each nonempty matrix or coefficient map
    replaced by "\\x00", appended to blocks with its container depth."""
    if not isinstance(o, _CONTAINERS):
        return o
    if getattr(o, "item_shape", None) is not None and o:
        blocks.append((o, level))
        return "\x00"
    # a leaf is kept without a call: a long plain list pays one test an item
    if isinstance(o, dict):
        return {k: _marked(v, blocks, level + 1) if isinstance(v, _CONTAINERS) else v
                for k, v in o.items()}
    return [_marked(v, blocks, level + 1) if isinstance(v, _CONTAINERS) else v for v in o]


def _write_block(o, level, write):
    """json's indent-2 text of a matrix or coefficient map at level, written
    a chunk at a time; False when _render refuses a chunk."""
    keyed = isinstance(o, dict)
    items = iter(o.items() if keyed else o)
    step = max(1, _CHUNK_LEAVES // max(1, math.prod(o.item_shape)))
    write(b"{" if keyed else b"[")
    for start in range(0, len(o), step):
        text = _render(list(itertools.islice(items, step)), keyed, o.item_shape, level)
        if text is None:
            return False
        write((text if start else text[1:]).encode())
    write(("\n" + _INDENT * level + ("}" if keyed else "]")).encode())
    return True


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
        bad = next(x for x in leaves if not math.isfinite(x))
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    if keyed:  # each key before its item's leaves
        size = len(leaves) // len(values)
        args = [None] * (len(leaves) + len(keys))
        args[::size + 1] = map(_quote, keys)
        for j in range(size):
            args[j + 1::size + 1] = leaves[j::size]
        leaves = args
    return (_template(shape, level, keyed) * len(values)) % tuple(leaves)


def _leaves(level, shape, kinds=frozenset({float})):
    """The leaves of a sequence of nested lists of shape, in order; None
    unless every list is a plain list of the right length and each leaf's type
    is in kinds (the writer's floats: json writes tuples and float subclasses
    alike, and then the payload)."""
    for size in shape:
        if set(map(type, level)) != {list} or set(map(len, level)) != {size}:
            return None
        level = list(itertools.chain.from_iterable(level))
    return level if level and set(map(type, level)) <= kinds else None


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
