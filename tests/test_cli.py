import json
import math

import numpy as np
import pytest

from freefock import cli, jsonio
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
