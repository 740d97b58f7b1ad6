import json

import numpy as np
import pytest

from freefock import jsonio
from freefock.caratheodory import CaratheodoryProblem, ExtensionResult
from freefock.errors import InputError
from freefock.fock import OperatorTuple
from freefock.pluriharmonic import PluriharmonicFn
from freefock.series import FreeSeries
from freefock.transforms import MomentFunctional


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
