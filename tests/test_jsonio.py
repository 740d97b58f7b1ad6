import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from freefock import jsonio
from freefock.caratheodory import CaratheodoryProblem, ExtensionResult
from freefock.errors import InputError
from freefock.fock import OperatorTuple
from freefock.pluriharmonic import PluriharmonicFn
from freefock.series import FreeSeries
from freefock.transforms import MomentFunctional
from freefock.words import GradedBasis


def rt(dump, load, obj, *load_args):
    return load(json.loads(json.dumps(dump(obj))), *load_args)


def test_matrix_roundtrip_and_validation():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    assert np.array_equal(jsonio.json_to_matrix(jsonio.matrix_to_json(m)), m)
    with pytest.raises(InputError):
        jsonio.json_to_matrix([[1.0]])  # entries must be [re, im]
    with pytest.raises(InputError):
        jsonio.json_to_matrix([])


def test_tuple_roundtrip():
    rng = np.random.default_rng(1)
    x = OperatorTuple(tuple(rng.standard_normal((3, 3)) + 0j for _ in range(2)))
    back = rt(jsonio.tuple_to_json, jsonio.json_to_tuple, x)
    assert back.n == 2 and back.dim == 3
    for a, b in zip(back.matrices, x.matrices):
        assert np.array_equal(a, b)
    with pytest.raises(InputError):
        jsonio.json_to_tuple({"n": 3, "matrices": [jsonio.matrix_to_json(np.eye(2))]})
    for entry in (["0.1", "0"], [True, False], [2**70, "0"]):
        with pytest.raises(InputError, match="number pairs"):
            jsonio.json_to_tuple({"n": 1, "dim": 1, "matrices": [[[entry]]]})
    big = jsonio.json_to_tuple({"n": 1, "dim": 1, "matrices": [[[[2**70, 0]]]]})
    assert big.matrices[0][0, 0] == 2.0**70


def test_series_roundtrip():
    f = FreeSeries(2, 3, (2, 1), {(1, 2): np.array([[0.5], [1j]])})
    back = rt(jsonio.series_to_json, jsonio.json_to_series, f)
    assert back.n == f.n and back.cutoff == f.cutoff and back.shape == f.shape
    assert np.array_equal(back.coefficient((1, 2)), f.coefficient((1, 2)))


def test_pluriharmonic_roundtrip():
    h = PluriharmonicFn(
        FreeSeries(2, 2, (1, 1), {(): [[1.0]], (1,): [[0.5j]]}),
        FreeSeries(2, 2, (1, 1), {(1,): [[-0.5j]]}),
    )
    back = rt(jsonio.pluriharmonic_to_json, jsonio.json_to_pluriharmonic, h)
    assert np.array_equal(back.analytic.coefficient((1,)), h.analytic.coefficient((1,)))
    assert np.array_equal(back.coanalytic.coefficient((1,)), h.coanalytic.coefficient((1,)))


def test_functional_roundtrip():
    mu = MomentFunctional(PluriharmonicFn(
        FreeSeries(1, 2, (1, 1), {(): [[1.0]], (1,): [[0.5]]}),
        FreeSeries(1, 2, (1, 1), {(1,): [[0.5]]}),
    ))
    back = rt(jsonio.functional_to_json, jsonio.json_to_functional, mu)
    assert np.array_equal(back.unit, mu.unit)
    assert np.array_equal(back.symbol.coanalytic.coeffs[(1,)], mu.symbol.coanalytic.coeffs[(1,)])


def test_functional_rejects_empty_word():
    one = [[[1.0, 0.0]]]
    for key in ("forward", "backward"):  # mu(I) is "unit", never a moment of ""
        with pytest.raises(InputError):
            jsonio.json_to_functional({"n": 1, "cutoff": 1, "unit": one, key: {"": one}})


def test_readers_reject_bad_generator_count():
    one = [[[1.0, 0.0]]]
    for n in (0, 12):
        with pytest.raises(InputError):
            jsonio.json_to_functional({"n": n, "cutoff": 1, "unit": one})
        with pytest.raises(InputError):
            jsonio.json_to_pluriharmonic({"n": n, "cutoff": 1, "shape": [1, 1], "analytic": {}})
        with pytest.raises(InputError):
            jsonio.json_to_series({"n": n, "cutoff": 1, "shape": [1, 1], "coefficients": {}})


def test_problem_and_extension_roundtrip():
    prob = CaratheodoryProblem(FreeSeries(2, 1, (1, 1), {(): [[2.0]], (1,): [[0.5 + 0.25j]]}))
    back = rt(jsonio.problem_to_json, jsonio.json_to_problem, prob)
    assert back.n == 2 and back.m == 1 and back.block_size == 1
    assert np.array_equal(back.data.coefficient((1,)), prob.data.coefficient((1,)))

    ext = ExtensionResult(
        FreeSeries(2, 3, (1, 1), {(): [[2.0]], (1,): [[0.0]], (1, 1): [[0.125]]}),
        {"min_eig_tm": 0.25, "iterations": 7},
    )
    payload = jsonio.extension_to_json(ext)
    assert sorted(payload["coefficients"]) == ["", "11"]  # exact zeros are not written
    back = rt(jsonio.extension_to_json, jsonio.json_to_extension, ext, 2)
    assert back.series.cutoff == 3
    assert back.certificate["iterations"] == 7
    assert np.array_equal(back.series.coeffs[(1, 1)], ext.series.coeffs[(1, 1)])


def test_problem_reader_needs_a_nonzero_b0_of_the_block_size():
    one = [[[1.0, 0.0]]]
    for coefficients, block in (({"1": one}, 1), ({"": [[[0.0, 0.0]]]}, 1), ({"": one}, 2)):
        with pytest.raises(InputError):
            jsonio.json_to_problem({"n": 1, "m": 1, "block_size": block, "coefficients": coefficients})
    with pytest.raises(InputError):
        jsonio.json_to_extension({"target_degree": 2, "coefficients": {"1": one}}, 1)


def test_word_keys_validated_against_n():
    payload = {"n": 2, "m": 1, "coefficients": {"": [[[1.0, 0.0]]], "7": [[[0.1, 0.0]]]}}
    with pytest.raises(InputError):
        jsonio.json_to_problem(payload)


def test_atomic_write(tmp_path):
    target = tmp_path / "out.json"
    jsonio.write_json_atomic({"a": 1.5}, target)
    assert json.loads(target.read_text()) == {"a": 1.5}
    # no stray temp files left behind
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_a_non_finite_payload_makes_no_file(tmp_path, monkeypatch):
    """to_bytes raises on inf and nan before write_json_atomic creates anything."""
    made = []
    monkeypatch.setattr(jsonio, "_new_file", made.append)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            jsonio.write_json_atomic({"a": [1.0, bad]}, tmp_path / "out.json")
    assert not made and not list(tmp_path.iterdir())
    assert jsonio.to_bytes({"a": [1.5]}) == b'{\n  "a": [\n    1.5\n  ]\n}\n'


def test_output_file_mode_follows_the_umask(tmp_path):
    """--output files get open()'s mode, 0o666 less the umask."""
    old = os.umask(0o027)
    try:
        jsonio.write_json_atomic({"a": 1.5}, tmp_path / "out.json")
        (tmp_path / "plain.json").write_text("{}")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "out.json").stat().st_mode) == 0o640
    assert stat.S_IMODE((tmp_path / "plain.json").stat().st_mode) == 0o640


def test_atomic_write_leaves_the_umask_alone(tmp_path, monkeypatch):
    """The process-wide umask is never set, so no other thread's files can
    get a borrowed one; a temporary name taken already is drawn again."""
    def no_umask(mask):
        raise AssertionError("write_json_atomic set the umask")

    names = iter([b"taken", b"taken", b"free"])
    monkeypatch.setattr(jsonio.os, "umask", no_umask)
    monkeypatch.setattr(jsonio.os, "urandom", lambda n: next(names))
    taken = tmp_path / f"tmp{b'taken'.hex()}.tmp"
    taken.write_text("kept")
    jsonio.write_json_atomic({"a": 1.5}, tmp_path / "out.json")
    assert json.loads((tmp_path / "out.json").read_text()) == {"a": 1.5}
    assert taken.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["out.json", taken.name])


# -- per-degree reader and writer ----------------------------------------------

special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300])
value = st.one_of(st.floats(allow_nan=False, allow_infinity=False), special)


@st.composite
def word_dicts(draw):
    """(n, cutoff, shape, {word: matrix}) with entries that stress float repr."""
    n, cutoff = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    word = st.lists(st.integers(1, n), max_size=cutoff).map(tuple)
    entry = st.builds(complex, value, value)
    matrix = st.lists(entry, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
    words = draw(st.dictionaries(word, matrix.map(lambda z: np.reshape(z, shape)), max_size=8))
    return n, cutoff, shape, words


def reference_coeffs_to_json(coeffs):
    """The per-word writer the per-degree one replaced: each word's digit
    string, then one [re, im] pair per entry, in word order."""
    return {
        "".join(str(i) for i in w): [[[complex(z).real, complex(z).imag] for z in row] for row in c]
        for w, c in sorted(coeffs.items())
    }


@settings(max_examples=150, deadline=None)
@given(word_dicts())
def test_writers_match_the_per_word_reference_bytewise(case):
    n, cutoff, shape, words = case
    f = FreeSeries(n, cutoff, shape, words)
    want = {"n": n, "cutoff": cutoff, "shape": list(shape),
            "coefficients": reference_coeffs_to_json(f.coeffs)}
    assert json.dumps(jsonio.series_to_json(f), indent=2) == json.dumps(want, indent=2)
    if shape[0] == shape[1]:  # the functional writes the symbol's words reversed
        mu = MomentFunctional(PluriharmonicFn(f, f.without_constant()))
        a, b = mu.symbol.analytic.coeffs, mu.symbol.coanalytic.coeffs
        want = {"n": n, "cutoff": cutoff, "unit": jsonio.matrix_to_json(mu.unit),
                "forward": reference_coeffs_to_json({w[::-1]: c for w, c in b.items()}),
                "backward": reference_coeffs_to_json({w[::-1]: c for w, c in a.items() if w})}
        assert json.dumps(jsonio.functional_to_json(mu)) == json.dumps(want)


@settings(max_examples=150, deadline=None)
@given(word_dicts(), st.randoms(use_true_random=False))
def test_reader_blocks_equal_the_dict_constructor_blocks(case, random):
    n, cutoff, shape, words = case
    obj = jsonio.series_to_json(FreeSeries(n, cutoff, shape, words))
    items = list(obj["coefficients"].items())
    random.shuffle(items)  # the reader sorts the keys itself
    obj["coefficients"] = dict(items)
    got = jsonio.json_to_series(json.loads(json.dumps(obj)))
    want = FreeSeries(n, cutoff, shape, words)
    assert list(got.blocks) == list(want.blocks)
    for k, (codes, c) in want.blocks.items():
        assert np.array_equal(got.blocks[k][0], codes) and np.array_equal(got.blocks[k][1], c)


ONE = [[[1.0, 0.0]]]


@pytest.mark.parametrize("coefficients", [
    {"0": ONE}, {"a": ONE}, {"é": ONE}, {"１": ONE},  # not ASCII digits 1..n
    {"3": ONE},  # a letter above n = 2
    {"1211": ONE},  # longer than the cutoff 3
    {"1": [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]},  # ragged
    {"1": [[1.0]]},  # a scalar entry
    {"1": [[[1.0]]]}, {"1": [[[1.0, 0.0, 0.0]]]},  # [re] and [re, im, x]
    {"1": [[[math.nan, 0.0]]]}, {"1": [[[0.0, math.inf]]]},  # not finite
    {"1": [[[10**400, 0.0]]]},  # an int past the float range
    {"1": [[["1.5", "0"]]]}, {"1": [[[1.0, "0"]]]},  # strings, alone or among numbers
    {"1": [[[True, False]]]},  # booleans
    {"1": [[[2**70, "1"]]]}, {"1": [[[2**70, True]]]},  # among ints past int64
    {"1": [[[1.0, 0.0], [0.0, 0.0]]]},  # not of the declared shape
    {"1": "x"}, {"1": []}, {"1": [[]]}, {"1": [[[]]]},
])
def test_readers_reject_each_malformed_coefficient_map(coefficients):
    with pytest.raises(InputError):
        jsonio.json_to_series({"n": 2, "cutoff": 3, "shape": [1, 1], "coefficients": coefficients})
    with pytest.raises(InputError):
        jsonio.json_to_pluriharmonic({"n": 2, "cutoff": 3, "shape": [1, 1], "analytic": coefficients})
    with pytest.raises(InputError):
        jsonio.json_to_problem({"n": 2, "m": 3, "coefficients": {"": ONE, **coefficients}})


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.0, math.nan)])
def test_dict_constructor_rejects_non_finite_coefficients(bad):
    with pytest.raises(InputError):
        FreeSeries(1, 2, (1, 1), {(1,): [[bad]]})
    with pytest.raises(InputError):
        FreeSeries(2, 2, (2, 1), {(): [[1.0], [2.0]], (2, 1): np.array([[0.5], [bad]])})


# -- the output format ---------------------------------------------------------


def json_bytes(obj):
    """The output format's definition."""
    return (json.dumps(obj, indent=2) + "\n").encode()


floats = st.one_of(value, st.sampled_from([1e16, 1e-7, 0.1]))
arrays = st.lists(st.integers(0, 3), max_size=3).flatmap(lambda shape: st.lists(
    st.builds(complex, floats, floats), min_size=math.prod(shape), max_size=math.prod(shape),
).map(lambda z: np.array(z, dtype=complex).reshape(shape)))
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), floats, floats.map(np.float64),
    st.text(), st.sampled_from(['"', "\\", "\n", "\x00", "\u2028", "é", "\U0001f600"]),
    arrays.map(jsonio.matrix_to_json),
)
keys = st.one_of(st.text(max_size=4), st.integers(-5, 5), floats, st.booleans(), st.none())
trees = st.recursive(leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(keys, inner, max_size=4),
), max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(trees)
@example(list(range(300)))  # plain containers longer than a chunk
@example({str(i): [float(i), None] for i in range(300)})
def test_to_bytes_is_json_dumps_indent_2(obj):
    assert jsonio.to_bytes(obj) == json_bytes(obj)


def test_to_bytes_of_each_producer_is_json_dumps_indent_2():
    rng = np.random.default_rng(4)
    words = GradedBasis(3, 3).words  # all 40, the empty word first
    f = FreeSeries(3, 3, (3, 3), {w: rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                                  for w in words})
    zero = FreeSeries(2, 2, (2, 2), {})
    h = PluriharmonicFn(f, f.without_constant())
    x = OperatorTuple(tuple(rng.standard_normal((4, 4)) + 0j for _ in range(2)))
    ext = ExtensionResult(f, {"min_eig_tm": 0.25, "iterations": 7})
    payloads = [jsonio.series_to_json(f), jsonio.series_to_json(zero), jsonio.pluriharmonic_to_json(h),
                jsonio.functional_to_json(MomentFunctional(h)), jsonio.extension_to_json(ext),
                jsonio.tuple_to_json(x)]
    assert len(payloads[0]["coefficients"]) == 40 and payloads[1]["coefficients"] == {}
    for payload in payloads:
        assert jsonio.to_bytes(payload) == json_bytes(payload)


def test_changed_matrices_and_maps_still_write_json_dumps():
    """A matrix or coefficient map changed after it was made (a tuple, an
    int, a numpy float or a dict of float keys, a row of another length,
    another key type) is written as json.dumps writes it."""
    f = FreeSeries(2, 2, (2, 2), {(1,): np.eye(2), (2,): np.ones((2, 2)), (1, 2): np.eye(2)})
    for change in (
        lambda m: m[0][0].__setitem__(0, (1.0, 2.0)),
        lambda m: m[1][1].__setitem__(1, 3),
        lambda m: m[0][1].__setitem__(0, np.float64(0.5)),
        lambda m: m[0].__setitem__(0, {0.5: 1.0, 1.5: 2.0}),
        lambda m: m[1].append([4.0, 5.0]),
        lambda m: m.append([[1.0, 2.0]]),
        lambda m: m.__setitem__(0, [[[1.0, 0.0]]] * 2),
    ):
        payload = {"value": jsonio.matrix_to_json(np.arange(6.0).reshape(3, 2)),
                   "map": jsonio.series_to_json(f)["coefficients"]}
        change(payload["value"])
        change(payload["map"]["1"])
        assert jsonio.to_bytes(payload) == json_bytes(payload)
    coefficients = jsonio.series_to_json(f)["coefficients"]
    coefficients[7] = coefficients.pop("2")
    assert jsonio.to_bytes(coefficients) == json_bytes(coefficients)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_matrices_and_maps_raise_before_any_file(tmp_path, monkeypatch, bad):
    made = []
    monkeypatch.setattr(jsonio, "_new_file", made.append)
    f = FreeSeries(1, 2, (2, 2), {(1,): np.eye(2)})
    f.blocks[1][1][0, 1, 0] = bad  # past the constructor's finiteness check, as an overflow would be
    for payload in ({"value": jsonio.matrix_to_json(np.array([[1.0, bad]]))}, jsonio.series_to_json(f)):
        with pytest.raises(ValueError):
            jsonio.to_bytes(payload)
        with pytest.raises(ValueError):
            jsonio.write_json_atomic(payload, tmp_path / "out.json")
    assert not made and not list(tmp_path.iterdir())
