import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freefock import cli, jsonio, linalg
from freefock.caratheodory import CaratheodoryProblem
from freefock.fock import OperatorTuple
from freefock.series import FreeSeries


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def write_problem(tmp_path, mapping, n, m, name="problem.json"):
    prob = CaratheodoryProblem(n, m, {w: np.array([[c]]) for w, c in mapping.items()})
    path = tmp_path / name
    jsonio.write_json_atomic(jsonio.problem_to_json(prob), path)
    return str(path)


def test_basis_command(capsys):
    code, payload = run_cli(capsys, "basis", "2", "2")
    assert code == 0
    assert payload["size"] == 7
    assert payload["words"][-1] == "22"
    assert payload["version"]

    code, payload = run_cli(capsys, "basis", "1", "3")
    assert code == 0
    assert payload["words"] == ["", "1", "11", "111"]


def test_basis_rejects_bad_generator_count(capsys):
    assert cli.main(["basis", "10", "2"]) == 3


def test_check_command(tmp_path, capsys):
    path = write_problem(tmp_path, {(): 1.0, (1,): 0.5}, 1, 1)
    code, payload = run_cli(capsys, "check", path)
    assert code == 0
    assert payload["feasible"] is True
    assert payload["min_eig"] == pytest.approx(0.5, abs=1e-12)

    path = write_problem(tmp_path, {(): 2.0, (1,): 3.0}, 1, 1, "bad.json")
    code, payload = run_cli(capsys, "check", path)
    assert code == 1
    assert payload["min_eig"] == pytest.approx(-1.0, abs=1e-12)


def test_check_rejects_malformed_word(tmp_path, capsys):
    path = tmp_path / "malformed.json"
    path.write_text(
        json.dumps(
            {"n": 2, "m": 1, "coefficients": {"": [[[1.0, 0.0]]], "3": [[[0.5, 0.0]]]}}
        )
    )
    assert cli.main(["check", str(path)]) == 3


def test_extend_command(tmp_path, capsys):
    path = write_problem(tmp_path, {(): 1.0, (1,): 0.5}, 1, 1)
    out = tmp_path / "ext.json"
    code = cli.main(
        ["extend", path, "--target-degree", "3", "--seed", "11", "--output", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["certificate"]["min_eig_tm"] >= -1e-8
    assert payload["certificate"]["prescribed_error"] == 0.0
    assert payload["verification"]["passed"] is True
    assert payload["seed"] == 11

    infeasible = write_problem(tmp_path, {(): 2.0, (1,): 3.0}, 1, 1, "inf.json")
    assert cli.main(["extend", infeasible, "--target-degree", "3"]) == 1

    hard = write_problem(tmp_path, {(): 1.0, (1,): 0.9}, 1, 1, "hard.json")
    code, payload = run_cli(capsys, "extend", hard, "--target-degree", "3")
    assert code == 0
    assert payload["verification"]["passed"] is True
    assert set(payload["certificate"]) == {"min_eig_tm", "prescribed_error"}
    assert cli.main(["extend", hard, "--target-degree", "3", "--max-iter", "1"]) == 3


def test_ragged_matrix_is_input_error(tmp_path):
    f = FreeSeries(1, 1, (2, 2), {(1,): np.eye(2)})
    fpath = tmp_path / "series.json"
    jsonio.write_json_atomic(jsonio.series_to_json(f), fpath)
    xpath = tmp_path / "ragged_tuple.json"
    zero = [0.0, 0.0]
    xpath.write_text(json.dumps({"n": 1, "dim": 2, "matrices": [[[zero, zero], [zero]]]}))
    assert cli.main(["eval", str(fpath), str(xpath)]) == 3

    ppath = tmp_path / "ragged_problem.json"
    ppath.write_text(json.dumps({"n": 1, "m": 1, "coefficients": {"": [[[1.0, 0.0]], []]}}))
    assert cli.main(["check", str(ppath)]) == 3


def test_non_finite_input_is_input_error(tmp_path):
    for bad in ("NaN", "Infinity", "-Infinity", "1e400"):
        path = tmp_path / "problem.json"
        path.write_text(
            '{"n": 1, "m": 1, "coefficients": {"": [[[1.0, 0.0]]], "1": [[[%s, 0.0]]]}}' % bad
        )
        assert cli.main(["check", str(path)]) == 3
        assert cli.main(["extend", str(path), "--target-degree", "2"]) == 3


@pytest.mark.parametrize("shape", [[2], [-1, -1], [0, 0], [2, 2, 2]])
def test_bad_shape_is_input_error(tmp_path, shape):
    tpath = tmp_path / "tuple.json"
    jsonio.write_json_atomic(jsonio.tuple_to_json(OperatorTuple((np.zeros((1, 1)),))), tpath)
    spath = tmp_path / "series.json"
    spath.write_text(json.dumps({"n": 1, "cutoff": 2, "shape": shape, "coefficients": {}}))
    hpath = tmp_path / "symbol.json"
    hpath.write_text(json.dumps({"n": 1, "cutoff": 2, "shape": shape, "analytic": {}}))
    for argv in (
        ["cayley", "forward", str(spath)],
        ["eval", str(spath), str(tpath)],
        ["norm", str(spath)],
        ["poisson", str(hpath), str(tpath)],
    ):
        assert cli.main(argv) == 3, argv


def test_cayley_roundtrip_via_cli(tmp_path, capsys):
    rng = np.random.default_rng(0)
    coeffs = {
        (1,): rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)),
        (2,): rng.standard_normal((1, 1)),
        (1, 2): rng.standard_normal((1, 1)),
    }
    f = FreeSeries(2, 3, (1, 1), coeffs)
    fpath = tmp_path / "f.json"
    jsonio.write_json_atomic(jsonio.series_to_json(f), fpath)

    gpath = tmp_path / "g.json"
    assert cli.main(["cayley", "forward", str(fpath), "--output", str(gpath)]) == 0
    g = json.loads(gpath.read_text())["series"]
    g2path = tmp_path / "g2.json"
    jsonio.write_json_atomic(g, g2path)

    code, payload = run_cli(capsys, "cayley", "inverse", str(g2path))
    assert code == 0
    back = jsonio.json_to_series(payload["series"])
    for w in set(f.coeffs) | set(back.coeffs):
        assert np.max(np.abs(back.coefficient(w) - f.coefficient(w))) <= 1e-10


def test_eval_command(tmp_path, capsys):
    f = FreeSeries(2, 2, (1, 1), {(): np.array([[2.5]]), (1,): np.array([[1.0]])})
    fpath = tmp_path / "series.json"
    jsonio.write_json_atomic(jsonio.series_to_json(f), fpath)
    x = OperatorTuple((np.zeros((2, 2)), np.zeros((2, 2))))
    xpath = tmp_path / "tuple.json"
    jsonio.write_json_atomic(jsonio.tuple_to_json(x), xpath)

    code, payload = run_cli(capsys, "eval", str(fpath), str(xpath))
    assert code == 0
    value = jsonio.json_to_matrix(payload["value"])
    assert np.allclose(value, 2.5 * np.eye(2))
    assert payload["exact"] is True


def test_eval_scope_error(tmp_path):
    f = FreeSeries(1, 3, (1, 1), {(1,) * k: np.array([[2.0**k]]) for k in range(1, 4)})
    fpath = tmp_path / "series.json"
    jsonio.write_json_atomic(jsonio.series_to_json(f), fpath)
    x = OperatorTuple((np.eye(2),))
    xpath = tmp_path / "tuple.json"
    jsonio.write_json_atomic(jsonio.tuple_to_json(x), xpath)
    assert cli.main(["eval", str(fpath), str(xpath)]) == 4


def test_norm_command(tmp_path, capsys):
    f = FreeSeries(2, 1, (1, 1), {(1,): np.array([[1.0]]), (2,): np.array([[1.0]])})
    fpath = tmp_path / "series.json"
    jsonio.write_json_atomic(jsonio.series_to_json(f), fpath)
    code, payload = run_cli(capsys, "norm", str(fpath), "--trunc", "2")
    assert code == 0
    assert payload["norm_lower_bound"] == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_norm_over_size_limit_is_scope_error(tmp_path, capsys):
    f = FreeSeries(2, 1, (1, 1), {(1,): np.array([[1.0]])})
    fpath = tmp_path / "series.json"
    jsonio.write_json_atomic(jsonio.series_to_json(f), fpath)
    old = linalg.MAX_DIM
    linalg.set_max_dim(8)  # P^(3) over two letters has dimension 15
    try:
        code = cli.main(["norm", str(fpath), "--trunc", "3"])
    finally:
        linalg.set_max_dim(old)
    assert code == 4
    assert "size limit" in capsys.readouterr().err


def test_series_over_size_limit_is_scope_error(tmp_path, capsys):
    two = FreeSeries(2, 6, (1, 1), {(1,): np.array([[0.5]]), (2,): np.array([[0.25j]])})
    one = FreeSeries(1, 40, (1, 1), {(1,): np.array([[0.5]])})
    paths = {}
    for name, f in (("two", two), ("one", one)):
        paths[name] = tmp_path / f"{name}.json"
        jsonio.write_json_atomic(jsonio.series_to_json(f), paths[name])
    old = linalg.MAX_DIM
    linalg.set_max_dim(8)  # 64 entries; two letters reach 126 words by degree 6
    try:
        for direction in ("forward", "inverse"):
            assert cli.main(["cayley", direction, str(paths["two"])]) == 4
            assert "size limit" in capsys.readouterr().err
            # one word per degree: 40 words fit
            code, payload = run_cli(capsys, "cayley", direction, str(paths["one"]))
            assert code == 0
            assert len(payload["series"]["coefficients"]) == 40
    finally:
        linalg.set_max_dim(old)


def test_empty_series_with_huge_cutoff(tmp_path, capsys):
    src = tmp_path / "s.json"
    src.write_text(json.dumps({"n": 1, "cutoff": 4e15, "shape": [2, 2], "coefficients": {}}))
    code, payload = run_cli(capsys, "cayley", "inverse", str(src))
    assert code == 0 and payload["series"]["coefficients"] == {}


def test_non_finite_result_is_scope_error(tmp_path, capsys):
    # finite input whose Cayley transform overflows at words 11 and 111
    series = {"n": 1, "cutoff": 3, "shape": [1, 1], "coefficients": {"1": [[[1e200, 0]]]}}
    src = tmp_path / "s.json"
    src.write_text(json.dumps(series))
    assert cli.main(["cayley", "forward", str(src)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and "not finite" in err
    assert cli.main(["cayley", "forward", str(src), "--output", str(tmp_path / "o.json")]) == 4
    assert "not finite" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]


def test_basis_size_is_checked_before_enumerating(monkeypatch, capsys):
    old = linalg.MAX_DIM
    linalg.set_max_dim(4)  # 16 entries
    try:
        code, payload = run_cli(capsys, "basis", "2", "3")
        assert code == 0 and payload["size"] == 15
        assert cli.main(["basis", "2", "4"]) == 4  # 31 words do not fit
        assert "size limit" in capsys.readouterr().err
        assert cli.main(["basis", "1", "16"]) == 4  # 17 words
    finally:
        linalg.set_max_dim(old)

    def never(*args):
        raise AssertionError("enumerated before the size check")

    # about 3e11 and 2^65 words: refused without enumerating anything
    monkeypatch.setattr(cli, "GradedBasis", never)
    assert cli.main(["basis", "9", "12"]) == 4
    assert cli.main(["basis", "2", "1000000000"]) == 4


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("broken command")

    monkeypatch.setattr(cli, "cmd_basis", broken)
    assert cli.main(["basis", "2", "1"]) == cli.EXIT_INTERNAL == 5
    err = capsys.readouterr().err
    assert "internal error" in err and "broken command" in err


def test_poisson_command(tmp_path, capsys):
    h = {
        "n": 1,
        "cutoff": 1,
        "shape": [1, 1],
        "analytic": {"": [[[1.0, 0.0]]], "1": [[[0.5, 0.0]]]},
        "coanalytic": {"1": [[[0.5, 0.0]]]},
    }
    hpath = tmp_path / "h.json"
    jsonio.write_json_atomic(h, hpath)
    x = OperatorTuple((np.array([[0.0, 0.4], [0.0, 0.0]]),))
    xpath = tmp_path / "x.json"
    jsonio.write_json_atomic(jsonio.tuple_to_json(x), xpath)

    code, payload = run_cli(capsys, "poisson", str(hpath), str(xpath), "--trunc", "4")
    assert code == 0
    got = jsonio.json_to_matrix(payload["value"])
    want = np.eye(2) + 0.5 * np.array([[0.0, 0.4], [0.4, 0.0]])
    assert np.max(np.abs(got - want)) <= 1e-9


def test_selftest_list(capsys):
    code = cli.main(["selftest", "--list"])
    out = capsys.readouterr().out.split()
    assert code == 0
    assert "creation_algebra" in out and "canary" in out


def test_json_roundtrip_exact():
    values = [0.1 + 0.2j, 1.0 / 3.0, math.pi, -2.5e-17]
    m = np.array([values])
    again = jsonio.json_to_matrix(json.loads(json.dumps(jsonio.matrix_to_json(m))))
    assert np.array_equal(again, m)


junk = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6), st.floats(-3, 6), st.text(max_size=3),
    st.sampled_from([math.nan, math.inf, -math.inf]), st.lists(st.integers(-1, 3), max_size=3),
)
number = st.one_of(st.floats(-2, 2), st.sampled_from([0.0, 1e200, -1e300]))


@st.composite
def series_json(draw):
    """Mostly well-formed series JSON with at most one field or matrix
    entry replaced by junk (integers past float range only in entries).
    Cutoffs and generator counts stay small: a nonzero series with a huge
    cutoff is computed degree by degree up to the size limit, which takes
    too long to fuzz."""
    n, p, cutoff = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(0, 5))
    letters = "".join(str(i) for i in range(1, n + 1))
    valid = st.text(letters, min_size=min(cutoff, 1), max_size=cutoff)
    words = st.one_of(valid, st.text("0123456789a"))
    entry = st.lists(number, min_size=2, max_size=2)
    matrix = st.lists(st.lists(entry, min_size=p, max_size=p), min_size=p, max_size=p)
    coeffs = draw(st.dictionaries(words, matrix, max_size=6))
    obj = {"n": n, "cutoff": cutoff, "shape": [p, p], "coefficients": coeffs}
    key = draw(st.sampled_from([None, None, "n", "cutoff", "shape", "coefficients", "entry"]))
    if key == "entry" and coeffs:
        bad = st.one_of(junk, st.lists(st.one_of(junk, st.integers(10**309, 10**400))))
        coeffs[draw(st.sampled_from(sorted(coeffs)))][0][0] = draw(bad)
    elif key in obj:
        obj[key] = draw(junk)
    return obj


@settings(max_examples=200, deadline=None)
@given(series_json(), st.sampled_from(["forward", "inverse"]), st.booleans())
def test_cayley_json_fuzz_exits_with_documented_codes(obj, direction, small_limit):
    """Any series JSON through `freefock cayley`: a result (0), an input
    error (3) or a scope error (4), never an internal error."""
    old = linalg.MAX_DIM
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "series.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(obj))
        out, err = io.StringIO(), io.StringIO()
        linalg.set_max_dim(4 if small_limit else old)  # 16 entries
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["cayley", direction, path])
        finally:
            linalg.set_max_dim(old)
    assert code in (0, 3, 4), err.getvalue()
