import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freefock import cli, fock, jsonio, linalg, words
from freefock import caratheodory as cara
from freefock import pluriharmonic as ph
from freefock import toeplitz as tp
from freefock.caratheodory import CaratheodoryProblem
from freefock.errors import InputError, ScopeError
from freefock.fock import FockTrunc, OperatorTuple
from freefock.series import DEGREE_ENTRIES, FreeSeries


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def write_problem(tmp_path, mapping, n, m, name="problem.json"):
    prob = CaratheodoryProblem(
        FreeSeries(n, m, (1, 1), {w: np.array([[c]]) for w, c in mapping.items()})
    )
    path = tmp_path / name
    jsonio.write_json_atomic(jsonio.problem_to_json(prob), path)
    return str(path)


def run_on_json(argv, max_dim=None):
    """cli.main(argv) with each dict in argv written to a temporary JSON
    file and replaced by its path, under an optional size limit; returns
    the exit code and what was written to stderr."""
    old = linalg.MAX_DIM
    with tempfile.TemporaryDirectory() as tmp:
        args = []
        for k, arg in enumerate(argv):
            if isinstance(arg, dict):
                path = os.path.join(tmp, f"input{k}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(arg))
                arg = path
            args.append(arg)
        out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()  # _emit writes bytes
        linalg.set_max_dim(max_dim or old)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(args)
        finally:
            linalg.set_max_dim(old)
    return code, err.getvalue()


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


@pytest.mark.parametrize("n,coefficients", [(0, {}), (12, {"1": [[[1.0, 0.0]]]})])
def test_cayley_rejects_bad_generator_count(n, coefficients):
    # words are digit strings, so n stops at 9; n = 0 has no words at all
    series = {"n": n, "cutoff": 2, "shape": [1, 1], "coefficients": coefficients}
    assert run_on_json(["cayley", "forward", series])[0] == 3


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


def test_check_rejects_a_non_hermitian_b0_at_any_scale():
    # b_0 = 1e200 i: its squares overflow, so the test runs on b_0 / max|b_0|
    for big in (1e150, 1e200):
        code, err = run_on_json(["check", {"n": 1, "m": 0, "coefficients": {"": [[[0.0, big]]]}}])
        assert code == 3 and "Hermitian" in err
    assert run_on_json(["check", {"n": 1, "m": 0, "coefficients": {"": [[[1e200, 0.0]]]}}])[0] == 0


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


@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_cayley_cutoff_is_rebuilt_through_the_input_check(tmp_path, direction):
    """--cutoff below the top degree or negative exits 3; raised, it gives
    the bytes of the same series written with that cutoff."""
    low = {"n": 2, "cutoff": 2, "shape": [1, 1],
           "coefficients": {"1": [[[0.5, 0.0]]], "21": [[[0.25, -0.125]]]}}
    for cutoff in ("1", "-1"):
        code, err = run_on_json(["cayley", direction, low, "--cutoff", cutoff])
        assert code == 3 and "input error" in err
    outs = []
    for obj, argv in ((low, ["--cutoff", "5"]), (dict(low, cutoff=5), [])):
        path = tmp_path / f"out{len(outs)}.json"
        assert run_on_json(["cayley", direction, obj, *argv, "--output", str(path)])[0] == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] and json.loads(outs[0])["series"]["cutoff"] == 5


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


def test_eval_past_the_float_range_of_the_jsr_recurrence():
    # at X = 0.5 the depth-600 recurrence passes 0.25^538, below the
    # smallest float; the tuple is not nilpotent and the tail stays positive
    x = {"n": 1, "dim": 1, "matrices": [[[[0.5, 0.0]]]]}
    for cutoff in (500, 600):
        f = {"n": 1, "cutoff": cutoff, "shape": [1, 1], "coefficients": {"1": [[[1.0, 0.0]]]}}
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out.json")
            assert run_on_json(["eval", f, x, "--output", out])[0] == 0
            with open(out, encoding="utf-8") as fh:
                payload = json.load(fh)
        assert payload["exact"] is False and payload["tail_estimate"] > 0.0
        assert payload["jsr"]["value"] == 0.5 and payload["jsr"]["nilpotent_order"] is None
    # (1e200)^(2k) overflows at k = 1
    f["cutoff"] = 2
    x["matrices"] = [[[[1e200, 0.0]]]]
    assert run_on_json(["eval", f, x])[0] in (0, 4)


def test_eval_tail_of_coefficients_below_the_square_root_of_the_smallest_float(capsys):
    # the slice norm 1e-170 squares to below the smallest float; the
    # problem scaled by 1e170 has the same tail estimate, 0.01 / 0.9
    payloads = []
    for coef, x in ((1e-170, 1e169), (0.1, 1.0)):
        f = {"n": 1, "cutoff": 1, "shape": [1, 1], "coefficients": {"1": [[[coef, 0.0]]]}}
        t = {"n": 1, "dim": 1, "matrices": [[[[x, 0.0]]]]}
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out.json")
            assert run_on_json(["eval", f, t, "--output", out])[0] == 0
            with open(out, encoding="utf-8") as fh:
                payloads.append(json.load(fh))
    tiny, scaled = (p["tail_estimate"] for p in payloads)
    assert scaled == pytest.approx(0.01 / 0.9, rel=1e-12)
    assert tiny == pytest.approx(scaled, rel=1e-12)


def test_eval_at_a_huge_cutoff_exits_4_unless_the_tuple_is_nilpotent():
    f = {"n": 1, "cutoff": 10**15, "shape": [1, 1],
         "coefficients": {"": [[[1.0, 0.0]]], "1": [[[0.5, 0.0]]]}}
    x = {"n": 1, "dim": 1, "matrices": [[[[0.1, 0.0]]]]}
    code, err = run_on_json(["eval", f, x])
    assert code == 4 and "jsr estimate" in err
    nil = {"n": 1, "dim": 2, "matrices": [[[[0.0, 0.0], [0.3, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]}
    assert run_on_json(["eval", f, nil]) == (0, "")


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


def test_norm_past_the_dense_side(tmp_path, capsys):
    """n = 2, trunc 14: f(S^(14)) has side 32767, far past the dense cap;
    the structured norm is certified within its reported norm_rtol."""
    f = FreeSeries(2, 2, (1, 1), {(): np.array([[0.5]]), (1,): np.array([[0.3 + 0.2j]]),
                                  (2, 1): np.array([[-0.4]])})
    fpath = tmp_path / "series.json"
    jsonio.write_json_atomic(jsonio.series_to_json(f), fpath)
    code, payload = run_cli(capsys, "norm", str(fpath), "--trunc", "14")
    assert code == 0
    assert math.isfinite(payload["norm_lower_bound"]) and payload["trunc"] == 14
    assert payload["norm_rtol"] == 1e-9
    # nondecreasing in the truncation, and above the dense value at trunc 6
    code, small = run_cli(capsys, "norm", str(fpath), "--trunc", "5")
    assert code == 0 and "norm_rtol" not in small
    assert payload["norm_lower_bound"] >= small["norm_lower_bound"]


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
            # one word per degree: 40 words and the fixed storage of their
            # 40 degrees fit in 1600 entries, far below the 2^40 of n^k words
            linalg.set_max_dim(40)
            code, payload = run_cli(capsys, "cayley", direction, str(paths["one"]))
            assert code == 0
            assert len(payload["series"]["coefficients"]) == 40
            assert 40 * (1 + DEGREE_ENTRIES) <= 40**2
            linalg.set_max_dim(8)
    finally:
        linalg.set_max_dim(old)


def test_empty_series_with_huge_cutoff(tmp_path, capsys):
    src = tmp_path / "s.json"
    src.write_text(json.dumps({"n": 1, "cutoff": 4 * 10**15, "shape": [2, 2], "coefficients": {}}))
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

    # about 3e11 and 2^65 words: refused without enumerating anything, also
    # when a check needs the basis of an n = 2, m = 40 problem
    monkeypatch.setattr(words.itertools, "product", never)
    assert cli.main(["basis", "9", "12"]) == 4
    assert cli.main(["basis", "2", "1000000000"]) == 4
    problem = {"n": 2, "m": 40, "coefficients": {"": [[[1.0, 0.0]]]}}
    assert run_on_json(["check", problem])[0] == 4


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("broken command")

    monkeypatch.setattr(cli, "cmd_basis", broken)
    assert cli.main(["basis", "2", "1"]) == cli.EXIT_INTERNAL == 5
    err = capsys.readouterr().err
    assert "internal error" in err and "broken command" in err


@pytest.mark.parametrize("text", [
    b"\xff\xfe{}",  # not UTF-8
    b"[" + b"9" * 5000 + b"]",  # past Python's 4300-digit int conversion limit
    b"[" * 100000,  # past the decoder's recursion limit
], ids=["bytes", "digits", "nesting"])
def test_unreadable_json_is_input_error(tmp_path, capsys, text):
    """A file json cannot decode, however it fails, exits 3 with one
    "cannot read JSON" line, not 5 with a traceback."""
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    assert cli.main(["norm", str(path), "--trunc", "2"]) == 3
    err = capsys.readouterr().err
    assert "cannot read JSON" in err and "internal error" not in err, err


def test_unwritable_output_is_input_error(tmp_path, capsys):
    """An --output in a missing directory, or naming a directory: one
    stderr line, exit 3, and no temporary file left behind."""
    (tmp_path / "taken").mkdir()
    for out in (tmp_path / "missing" / "x.json", tmp_path / "taken"):
        assert cli.main(["basis", "2", "2", "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: --output") and err.count("\n") == 1, err
        assert [p.name for p in tmp_path.rglob("*")] == ["taken"]


def test_stdout_closed_by_its_reader_exits_3():
    """`freefock basis 3 10 | head -1`: the 1.5 MB listing overfills the
    pipe, so the write fails once the reader has gone; one stderr line,
    exit 3, and nothing ignored at shutdown."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "freefock.cli", "basis", "3", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 3
    assert err == "output error: stdout was closed by its reader\n"


def test_stdout_cut_short_under_pythonunbuffered_exits_3():
    """`PYTHONUNBUFFERED=1 freefock basis 3 10 | head -c 100`: one raw write
    takes only part of the 1.5 MB once the reader has gone, and the next
    one fails, so the command exits 3 instead of 0."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__)),
           "PYTHONUNBUFFERED": "1"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "freefock.cli", "basis", "3", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 3
    assert err == "output error: stdout was closed by its reader\n"


def test_successive_calls_share_no_state(tmp_path, capsys):
    """The parser is built once per process; each call still parses its
    own flags and falls back to the defaults for the ones it omits."""
    f = FreeSeries(2, 1, (1, 1), {(1,): np.array([[1.0]]), (2,): np.array([[1.0]])})
    fpath = str(tmp_path / "series.json")
    jsonio.write_json_atomic(jsonio.series_to_json(f), fpath)
    out = str(tmp_path / "out.json")
    assert cli.main(["norm", fpath, "--trunc", "2", "--output", out]) == 0
    assert json.loads(Path(out).read_text(encoding="utf-8"))["trunc"] == 2
    code, payload = run_cli(capsys, "norm", fpath)
    assert code == 0 and payload["trunc"] == 4  # the default, no --output carried over
    assert cli._parser() is cli._parser()
    code, payload = run_cli(capsys, "basis", "2", "1")
    assert code == 0 and payload["size"] == 3 and "trunc" not in payload


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


def test_poisson_trunc_is_checked_before_enumerating(monkeypatch):
    """n = 2, trunc 23 holds 2^24 - 1 words, within MAX_DIM^2 entries but
    not their letters: refused before the basis enumerates anything."""
    h = {"n": 2, "cutoff": 1, "shape": [1, 1], "analytic": {"": [[[1.0, 0.0]]]},
         "coanalytic": {"1": [[[0.5, 0.0]]]}}
    x = jsonio.tuple_to_json(OperatorTuple((np.zeros((2, 2)), np.zeros((2, 2)))))

    def never(*args):
        raise AssertionError("enumerated before the size check")

    monkeypatch.setattr(words.itertools, "product", never)
    code, err = run_on_json(["poisson", h, x, "--trunc", "23"])
    assert code == 4 and "truncated Fock space" in err


def test_poisson_past_the_dense_side(capsys, tmp_path):
    """n = 2, trunc 14 (32767 words): the closed form builds nothing on
    P^(14), and at a nilpotent tuple the transform is h(X)."""
    h = ph.PluriharmonicFn(
        FreeSeries(2, 2, (1, 1), {(): [[1.0]], (1,): [[0.3]], (2, 1): [[-0.2j]]}),
        FreeSeries(2, 2, (1, 1), {(2,): [[0.25]], (1, 2): [[0.1 + 0.1j]]}),
    )
    x = OperatorTuple((np.triu(np.full((3, 3), 0.2), 1), np.triu(np.full((3, 3), 0.1j), 1)))
    paths = [str(tmp_path / "h.json"), str(tmp_path / "x.json")]
    jsonio.write_json_atomic(jsonio.pluriharmonic_to_json(h), paths[0])
    jsonio.write_json_atomic(jsonio.tuple_to_json(x), paths[1])
    code, payload = run_cli(capsys, "poisson", *paths, "--trunc", "14")
    assert code == 0
    got = jsonio.json_to_matrix(payload["value"])
    assert np.max(np.abs(got - ph.eval_at(h, x))) <= 1e-12


def test_poisson_rejects_constant_coanalytic_term():
    one = [[[1.0, 0.0]]]
    h = {"n": 1, "cutoff": 1, "shape": [1, 1], "analytic": {"": one}, "coanalytic": {"": one}}
    x = jsonio.tuple_to_json(OperatorTuple((np.zeros((2, 2)),)))
    assert run_on_json(["poisson", h, x, "--trunc", "2"])[0] == 3


def test_poisson_rejects_a_radius_outside_the_unit_interval_as_input():
    """A radius <= 0 is an input error (exit 3), checked before the tuple
    is compared with it, as nan and a radius above one are."""
    h = {"n": 1, "cutoff": 1, "shape": [1, 1], "analytic": {"": [[[1.0, 0.0]]]},
         "coanalytic": {"1": [[[0.5, 0.0]]]}}
    x = jsonio.tuple_to_json(OperatorTuple((np.array([[0.0, 0.3], [0.0, 0.0]]),)))
    for radius in ("0", "-0.5", "nan", "1.5"):
        code, err = run_on_json(["poisson", h, x, "--trunc", "2", "--radius", radius])
        assert code == 3 and f"radius {float(radius)} outside (0, 1]" in err
    # above one also before a tuple of row norm 2 is compared with it
    wide = jsonio.tuple_to_json(OperatorTuple((np.array([[0.0, 2.0], [0.0, 0.0]]),)))
    code, err = run_on_json(["poisson", h, wide, "--trunc", "3", "--radius", "1.5"])
    assert code == 3 and "radius 1.5 outside (0, 1]" in err


def test_non_integer_json_fields_exit_3_with_their_name():
    """n, m, cutoff, dim, block_size and the shape entries must be JSON
    integers: a float (2.0 too), a bool or a string is refused (exit 3)
    with the field's name, never truncated."""
    problem = {"n": 2, "m": 1, "block_size": 1,
               "coefficients": {"": [[[1.0, 0.0]]], "1": [[[0.3, 0.0]]]}}
    series = {"n": 1, "cutoff": 2, "shape": [1, 1], "coefficients": {"1": [[[0.3, 0.0]]]}}
    x = jsonio.tuple_to_json(OperatorTuple((np.array([[0.0, 0.3], [0.0, 0.0]]),)))
    assert run_on_json(["check", problem])[0] == 0
    assert run_on_json(["cayley", "forward", series])[0] == 0
    assert run_on_json(["eval", series, x])[0] == 0
    for junk in (2.9, 2.0, True, "2"):
        cases = [(["check", {**problem, key: junk}], key) for key in ("n", "m", "block_size")]
        cases += [(["cayley", "forward", {**series, key: junk}], key) for key in ("n", "cutoff")]
        cases += [(["cayley", "forward", {**series, "shape": [junk, 1]}], "shape entry")]
        cases += [(["eval", series, {**x, key: junk}], key) for key in ("n", "dim")]
        for argv, key in cases:
            code, err = run_on_json(argv)
            assert code == 3 and f"{key} must be an integer" in err, (argv, err)


def test_string_and_boolean_entries_exit_3():
    """Matrix entries must be JSON numbers: a b_0 of strings or a
    coefficient of booleans is refused (exit 3), not read as 1.5 or 1.0."""
    series = {"n": 1, "cutoff": 1, "shape": [1, 1], "coefficients": {"": [[[1.5, 0.0]]], "1": [[[1.0, 0.0]]]}}
    x = jsonio.tuple_to_json(OperatorTuple((np.array([[0.0, 0.3], [0.0, 0.0]]),)))
    assert run_on_json(["eval", series, x])[0] == 0
    for key, bad in (("", [[["1.5", "0"]]]), ("1", [[[True, False]]])):
        code, err = run_on_json(["eval", {**series, "coefficients": {**series["coefficients"], key: bad}}, x])
        assert code == 3 and "number pairs" in err, err
    code, err = run_on_json(["eval", series, {**x, "matrices": [[[[0.0, 0.0], ["0.3", "0"]], [[0.0, 0.0]] * 2]]}])
    assert code == 3 and "number pairs" in err, err


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
def coefficients_json(draw, maps, max_cutoff=5):
    """Mostly well-formed JSON of (n, cutoff, shape) and the coefficient
    maps named in maps, with at most one field or matrix entry replaced by
    junk (integers past float range only in entries).  Cutoffs and
    generator counts stay small unless max_cutoff is raised: a nonzero series
    with a huge cutoff is computed degree by degree up to the size limit,
    which takes too long to fuzz at the default limit.  Words stay below
    length 9."""
    n, p = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    cutoff = draw(st.integers(0, max_cutoff))
    letters = "".join(str(i) for i in range(1, n + 1))
    valid = st.text(letters, min_size=min(cutoff, 1), max_size=min(cutoff, 8))
    words = st.one_of(valid, st.text("0123456789a"))
    entry = st.lists(number, min_size=2, max_size=2)
    matrix = st.lists(st.lists(entry, min_size=p, max_size=p), min_size=p, max_size=p)
    obj = {"n": n, "cutoff": cutoff, "shape": [p, p]}
    obj.update((m, draw(st.dictionaries(words, matrix, max_size=6))) for m in maps)
    key = draw(st.sampled_from([None, None, "n", "cutoff", "shape", *maps, "entry"]))
    coeffs = obj[draw(st.sampled_from(maps))] if key == "entry" else {}
    if coeffs:
        bad = st.one_of(junk, st.lists(st.one_of(junk, st.integers(10**309, 10**400))))
        coeffs[draw(st.sampled_from(sorted(coeffs)))][0][0] = draw(bad)
    elif key in obj:
        obj[key] = draw(junk)
    return obj


def test_cayley_overflow_exits_4_with_runtime_warnings_as_errors():
    """A Cayley sum whose products overflow to inf and then meet -inf is
    refused at output (exit 4), also when RuntimeWarnings are errors."""
    big = {"1": [[[0, 1e200], [0, 0]], [[0, -1], [0, 0]]],
           "11": [[[0, 0], [0, 0]], [[-1e300, 0], [0, 0]]]}
    obj = {"n": 1, "cutoff": 3, "shape": [2, 2], "coefficients": big}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, err = run_on_json(["cayley", "forward", obj])
    assert code == 4 and "not finite" in err, err


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(["forward", "inverse"]), st.booleans())
def test_cayley_json_fuzz_exits_with_documented_codes(data, direction, small_limit):
    """Any series JSON through `freefock cayley`: a result (0), an input
    error (3) or a scope error (4), never an internal error.  Under the
    small size limit cutoffs reach 10^9."""
    obj = data.draw(coefficients_json(("coefficients",), max_cutoff=10**9 if small_limit else 5))
    code, err = run_on_json(["cayley", direction, obj], 4 if small_limit else None)  # 16 entries
    assert code in (0, 3, 4), err


@settings(max_examples=200, deadline=None)
@given(coefficients_json(("analytic", "coanalytic")))
def test_poisson_json_fuzz_exits_with_documented_codes(obj):
    """Any symbol JSON through `freefock poisson` at a fixed jointly
    nilpotent tuple of row norm <= 0.35 (X_i = 0.2 E_12): a result (0), an
    input error (3) or a scope error (4), never an internal error."""
    # the tuple has the symbol's n unless n itself was replaced by junk
    n = obj["n"] if type(obj["n"]) is int and 1 <= obj["n"] <= 3 else 1
    e12 = np.array([[0.0, 0.2], [0.0, 0.0]])
    x = jsonio.tuple_to_json(OperatorTuple((e12,) * n))
    code, err = run_on_json(["poisson", obj, x, "--trunc", "3"])
    assert code in (0, 3, 4), err


@st.composite
def problem_json(draw):
    """Mostly well-formed interpolation-problem JSON: coefficients_json
    with m <= 4 for the cutoff and block_size for the shape; half of the
    time only the words over the n letters are kept, and usually
    b_0 = s I (s in [0, 3]), so that some problems are feasible."""
    obj = draw(coefficients_json(("coefficients",), max_cutoff=4))
    shape = obj.pop("shape")
    obj["m"] = obj.pop("cutoff")
    if draw(st.booleans()):
        obj["block_size"] = shape[0] if isinstance(shape, list) and shape else shape
    coeffs = obj["coefficients"]
    if isinstance(coeffs, dict) and type(obj["n"]) is int and draw(st.booleans()):
        letters = set("123"[: obj["n"]])
        obj["coefficients"] = coeffs = {w: c for w, c in coeffs.items() if set(w) <= letters}
    if isinstance(shape, list) and len(shape) == 2 and isinstance(coeffs, dict):
        p, s = shape[0], draw(st.floats(0, 3))
        if draw(st.integers(0, 7)) and type(p) is int and p > 0:
            coeffs[""] = [[[s if i == j else 0.0, 0.0] for j in range(p)] for i in range(p)]
    return obj


@settings(max_examples=200, deadline=None)
@given(problem_json(), st.integers(0, 5))
def test_problem_json_fuzz_exits_with_documented_codes(obj, target):
    """Any problem JSON through `freefock check` and `freefock extend`: a
    verdict (0 feasible, 1 infeasible), an input error (3) or a scope
    error (4), never an internal error."""
    code, err = run_on_json(["check", obj])
    assert code in (0, 1, 3, 4), err
    code, err = run_on_json(["extend", obj, "--target-degree", str(target), "--samples", "2"])
    assert code in (0, 1, 3, 4), err


def unit_matrix(draw, shape):
    """s I for the square shape of coefficients_json (s in [0, 3]), one by
    one when the shape was replaced by junk, or now and then junk itself."""
    ok = isinstance(shape, list) and shape and type(shape[0]) is int and 1 <= shape[0] <= 2
    p, s = shape[0] if ok else 1, draw(st.floats(0, 3))
    unit = [[[s if i == j else 0.0, 0.0] for j in range(p)] for i in range(p)]
    return unit if draw(st.integers(0, 7)) else draw(junk)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_functional_json_fuzz_parses_or_raises_documented_errors(data):
    """jsonio.json_to_functional, which no command reads, on coefficients_json
    with forward and backward moments (half of the time only the nonempty
    words over the n letters) and a unit for the shape: a functional, or
    InputError / ScopeError (SizeLimitError among them)."""
    obj = data.draw(coefficients_json(("forward", "backward")))
    obj["unit"] = unit_matrix(data.draw, obj.pop("shape"))
    if type(obj["n"]) is int and data.draw(st.booleans()):
        letters = set("123"[: obj["n"]])
        for key in ("forward", "backward"):
            if isinstance(obj[key], dict):
                obj[key] = {w: c for w, c in obj[key].items() if w and set(w) <= letters}
    try:
        mu = jsonio.json_to_functional(obj)
    except (InputError, ScopeError):
        return
    assert (mu.n, mu.cutoff, mu.unit.shape) == (int(obj["n"]), int(obj["cutoff"]), (mu.p, mu.p))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 3))
def test_extension_json_fuzz_parses_or_raises_documented_errors(data, n):
    """jsonio.json_to_extension, which no command reads, over n letters on
    coefficients_json with the cutoff as target degree, usually a b_0 of
    the shape, and now and then a junk certificate: an extension, or
    InputError / ScopeError (SizeLimitError among them)."""
    obj = data.draw(coefficients_json(("coefficients",)))
    obj.pop("n")
    obj["target_degree"] = obj.pop("cutoff")
    unit = unit_matrix(data.draw, obj.pop("shape"))
    if isinstance(obj["coefficients"], dict) and data.draw(st.integers(0, 7)):
        obj["coefficients"][""] = unit
    if not data.draw(st.integers(0, 7)):
        obj["certificate"] = data.draw(junk)
    try:
        ext = jsonio.json_to_extension(obj, n)
    except (InputError, ScopeError):
        return
    assert (ext.series.n, ext.series.cutoff) == (n, int(obj["target_degree"]))


@st.composite
def tuple_json(draw):
    """Mostly well-formed operator-tuple JSON (n, dim <= 3), with at most
    one field or matrix entry replaced by junk."""
    n, dim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entry = st.lists(number, min_size=2, max_size=2)
    matrix = st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
    obj = {"n": n, "dim": dim, "matrices": draw(st.lists(matrix, min_size=n, max_size=n))}
    key = draw(st.sampled_from([None, None, "n", "dim", "matrices", "entry"]))
    if key == "entry":
        obj["matrices"][0][0][0] = draw(st.one_of(junk, st.integers(10**309, 10**400)))
    elif key:
        obj[key] = draw(junk)
    return obj


@settings(max_examples=300, deadline=None)
@given(tuple_json(), st.integers(1, 3))
def test_eval_tuple_json_fuzz_exits_with_documented_codes(x, cutoff):
    """Any tuple JSON through `freefock eval` of a small series over the
    tuple's n (over 1 generator when n was replaced by junk): a result
    (0), an input error (3) or a scope error (4), never an internal error."""
    n = x["n"] if type(x["n"]) is int and 1 <= x["n"] <= 3 else 1
    one, half = [[[1.0, 0.0]]], [[[0.5, 0.0]]]
    coefficients = {"": one, **{str(i): half for i in range(1, n + 1)}, "1" * cutoff: one}
    f = {"n": n, "cutoff": cutoff, "shape": [1, 1], "coefficients": coefficients}
    code, err = run_on_json(["eval", f, x])
    assert code in (0, 3, 4), err


def test_check_and_extend_past_the_dense_side(tmp_path, capsys):
    # n = 2, m = 1 extended to degree 12: T_12 has side d = 8191, past the
    # 4096 side cap of a dense matrix; the Schur factorisation decides and
    # probes of its inertia bracket lambda_min(T_12) in
    # [0.30379123306, 0.30379123372]
    path = write_problem(tmp_path, {(): 1.0, (1,): 0.3 + 0.2j, (2,): -0.4}, 2, 1)
    out = tmp_path / "ext.json"
    assert cli.main(["extend", path, "--target-degree", "12", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["verification"]["passed"] is True
    assert set(payload["certificate"]) == {"min_eig_tm", "prescribed_error"}
    assert payload["certificate"]["prescribed_error"] == 0.0
    assert 0.3037 <= payload["certificate"]["min_eig_tm"] <= 0.3038
    assert len(payload["coefficients"]) == 8191

    # a check of the extension itself: feasible, with the bracket of min_eig
    ext = tmp_path / "ext_problem.json"
    ext.write_text(json.dumps({"n": 2, "m": 12, "coefficients": payload["coefficients"]}))
    code, report = run_cli(capsys, "check", str(ext))
    assert code == 0 and report["feasible"] is True
    assert set(report) == {"feasible", "min_eig", "min_eig_atol", "matrix_dim", "tol",
                           "version", "tolerances"}
    assert report["matrix_dim"] == 8191
    assert report["min_eig"] == payload["certificate"]["min_eig_tm"]
    lo, hi = report["min_eig"], report["min_eig"] + report["min_eig_atol"]
    assert 0.30379123306 - 1e-11 <= hi and lo <= 0.30379123372 + 1e-11 and hi - lo <= 5e-9


@pytest.mark.parametrize("target", [7, 9])
def test_check_and_extend_payloads_are_plain_json(tmp_path, capsys, target):
    # n = 2: T_7 has side 255, at or below DENSE_DIM, and T_9 side 1023,
    # above it.  _emit writes with json.dumps and no default, so a numpy
    # bool or float in either payload would exit 5; every verdict and
    # eigenvalue is a Python bool or float.
    path = write_problem(tmp_path, {(): 1.0, (1,): 0.3 + 0.2j, (2,): -0.4}, 2, 1)
    code, ext = run_cli(capsys, "extend", path, "--target-degree", str(target))
    assert code == 0 and ext["verification"]["passed"] is True
    problem = tmp_path / "ext_problem.json"
    problem.write_text(json.dumps({"n": 2, "m": target, "coefficients": ext["coefficients"]}))
    code, report = run_cli(capsys, "check", str(problem))
    assert code == 0 and report["feasible"] is True
    assert ("min_eig_atol" in report) == (2 ** (target + 1) - 1 > tp.DENSE_DIM)
    prob = jsonio.json_to_problem(jsonio.load_json(str(problem)))
    rec = cara.check_feasibility(prob)
    assert type(rec.feasible) is bool and type(rec.min_eig) is float
    assert rec.min_eig_atol is None or type(rec.min_eig_atol) is float
    rep = cara.verify_solution(prob, cara.extend(prob, target + 1))
    assert type(rep.passed) is bool
    json.dumps(dataclasses.asdict(rec))
    json.dumps({k: [ok, v] for k, (ok, v) in rep.checks.items()})


def test_check_above_the_dense_threshold(capsys):
    # d p = 1023 at n = 2, m = 9: b_1 = 1.25 breaks T_1 >= 0
    bad = {"n": 2, "m": 9, "coefficients": {"": [[[1.0, 0.0]]], "1": [[[1.25, 0.0]]]}}
    code, err = run_on_json(["check", bad])
    assert code == 1
    code, err = run_on_json(["extend", bad, "--target-degree", "10"])
    assert code == 1 and "min eig" in err
    good = {"n": 2, "m": 9, "coefficients": {"": [[[1.0, 0.0]]], "1": [[[0.5, 0.0]]]}}
    assert run_on_json(["check", good])[0] == 0
    # past the threshold the size limit caps the p^2 d coefficients, not a side
    assert run_on_json(["check", good], max_dim=31)[0] == 4  # 961 < 1023 entries
    assert run_on_json(["check", good], max_dim=32)[0] == 0


@pytest.mark.parametrize("command", [["check"], ["extend", "--target-degree", "3"]])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_non_finite_tolerance_is_input_error(tmp_path, capsys, command, tol):
    """A non-finite --tol on feasible data exits 3 before T_m is assembled,
    and nothing is written; a negative finite one is a stricter test.
    (--tol=-inf: argparse reads a bare -inf as an option.)"""
    path = write_problem(tmp_path, {(): 1.0, (1,): 0.5}, 1, 1)
    out = tmp_path / "out.json"
    argv = [command[0], path, *command[1:], f"--tol={tol}", "--output", str(out)]
    assert cli.main(argv) == 3
    assert "not finite" in capsys.readouterr().err and not out.exists()
    assert cli.main([command[0], path, *command[1:], "--tol", "-0.1"]) == 0
    assert cli.main([command[0], path, *command[1:], "--tol", "-0.6"]) == 1


@pytest.mark.parametrize("argv", [
    ["extend", "PROBLEM", "--target-degree", "2", "--samples", "0"],
    ["extend", "PROBLEM", "--target-degree", "2", "--samples", "-3"],
    ["extend", "PROBLEM", "--target-degree", "2", "--seed", "-1"],
    ["selftest", "--seed", "-1"],
])
def test_samples_and_seed_are_checked_when_parsed(tmp_path, capsys, argv):
    """No sample would leave the nilpotent check at +inf, and numpy takes
    no negative seed: both are usage errors, and nothing is written."""
    path = write_problem(tmp_path, {(): 1.0, (1,): 0.5}, 1, 1)
    out = tmp_path / "out.json"
    argv = [path if a == "PROBLEM" else a for a in argv]
    if argv[0] == "extend":
        argv += ["--output", str(out)]
    assert cli.main(argv) == 3
    assert capsys.readouterr().out == "" and not out.exists()


def test_extend_with_too_many_samples_exits_4_before_drawing(tmp_path, capsys):
    path = write_problem(tmp_path, {(): 1.0, (1,): 0.5}, 1, 1)
    out = tmp_path / "out.json"
    argv = ["extend", path, "--target-degree", "3", "--samples", str(10**12), "--output", str(out)]
    assert cli.main(argv) == 4
    assert "verification samples" in capsys.readouterr().err and not out.exists()


def test_stdout_and_output_file_get_the_same_bytes(tmp_path, capsysbinary):
    path = write_problem(tmp_path, {(): 1.0, (1,): 0.5}, 1, 1)
    out = tmp_path / "out.json"
    assert cli.main(["extend", path, "--target-degree", "3", "--output", str(out)]) == 0
    assert cli.main(["extend", path, "--target-degree", "3"]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_check_and_extend_build_no_basis(tmp_path, monkeypatch, capsys):
    """No command but `basis` enumerates words.  Positivity, the extension
    and its verification read the series blocks and build no truncated
    Fock space either; eval, norm (dense and structured), cayley and
    poisson read blocks and code arithmetic, and poisson calls no
    shift_sum, poisson_kernel or join_indices."""
    def never(*args, **kwargs):
        raise AssertionError("built a word basis")

    monkeypatch.setattr(words.GradedBasis, "__init__", never)
    path = write_problem(tmp_path, {(): 1.0, (1,): 0.3 + 0.2j, (2,): -0.4}, 2, 1)
    with monkeypatch.context() as m:
        m.setattr(FockTrunc, "__init__", never)
        assert run_cli(capsys, "check", path)[0] == 0
        for target in ("3", "9"):  # dense T_3, and T_9 past the dense side
            code, payload = run_cli(capsys, "extend", path, "--target-degree", target)
            assert code == 0 and payload["verification"]["passed"] is True

    f = FreeSeries(2, 2, (1, 1), {(1,): [[0.3]], (2, 1): [[-0.2j]]})
    x = OperatorTuple((np.triu(np.full((3, 3), 0.3), 1), np.triu(np.full((3, 3), 0.2j), 1)))
    h = {"n": 2, "cutoff": 1, "shape": [1, 1], "analytic": {"": [[[1.0, 0.0]]]},
         "coanalytic": {"1": [[[0.5, 0.0]]]}}
    paths = {}
    for name, obj in (("f", jsonio.series_to_json(f)), ("x", jsonio.tuple_to_json(x)), ("h", h)):
        paths[name] = str(tmp_path / f"{name}.json")
        jsonio.write_json_atomic(obj, paths[name])
    for argv in (["eval", paths["f"], paths["x"]],
                 ["norm", paths["f"], "--trunc", "3"],  # dense, side 15
                 ["norm", paths["f"], "--trunc", "7"],  # structured, side 255
                 ["cayley", "forward", paths["f"]]):
        assert run_cli(capsys, *argv)[0] == 0, argv
    # poisson is closed form: no shift sum, kernel or index map on P^(N)
    for module, name in ((fock, "shift_sum"), (ph, "shift_sum"), (fock, "poisson_kernel"),
                         (fock, "join_indices"), (words, "join_indices")):
        monkeypatch.setattr(module, name, never)
    assert run_cli(capsys, "poisson", paths["h"], paths["x"], "--trunc", "4")[0] == 0


@pytest.mark.parametrize("command", ["norm", "poisson"])
def test_negative_truncation_is_input_error(command):
    series = {"n": 2, "cutoff": 1, "shape": [1, 1], "coefficients": {"1": [[[0.5, 0.0]]]}}
    h = {"n": 2, "cutoff": 1, "shape": [1, 1], "analytic": {"": [[[1.0, 0.0]]]},
         "coanalytic": {"1": [[[0.5, 0.0]]]}}
    x = jsonio.tuple_to_json(OperatorTuple((np.zeros((2, 2)), np.zeros((2, 2)))))
    inputs = [series] if command == "norm" else [h, x]
    code, err = run_on_json([command, *inputs, "--trunc", "-1"])
    assert code == 3 and "negative" in err
