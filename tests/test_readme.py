"""The README's library tour runs as written, and its interpolation
problem goes through the command line."""

import json
import pathlib
import re

from freefock import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_python_block_runs():
    assert len(blocks("python")) == 1
    exec(compile(blocks("python")[0], str(README), "exec"), {})


def test_readme_problem_json_checks_and_extends(tmp_path, capsys):
    problem = next(b for b in blocks("json") if '"block_size"' in b)
    path = tmp_path / "problem.json"
    path.write_text(problem, encoding="utf-8")
    assert cli.main(["check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["feasible"] is True
    assert cli.main(["extend", str(path), "--target-degree", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["verification"]["passed"] is True
