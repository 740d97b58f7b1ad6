"""Each input rule is stated once: square coefficients by
``FreeSeries.square``, a tuple's letter count by
``OperatorTuple.check_letters``, so every entry point refuses with one
wording; and no module reaches into another's private names."""

import ast
from pathlib import Path

import numpy as np
import pytest

import freefock
from freefock import caratheodory as cara
from freefock import fock
from freefock import multianalytic as ma
from freefock import pluriharmonic as ph
from freefock import series as fs
from freefock import toeplitz as tp
from freefock import transforms as tr
from freefock.errors import InputError
from freefock.fock import FockTrunc, OperatorTuple

TALL = fs.FreeSeries(2, 2, (2, 1), {(1,): np.array([[0.1], [0.2]])})  # no constant term
PAIR = OperatorTuple((np.array([[0.0, 0.3], [0.0, 0.0]]),) * 2)

SQUARE_SITES = {
    "assemble_T": tp.assemble_T,
    "shifted_factor": tp.shifted_factor,
    "tm_positivity": lambda f: tp.tm_positivity(f, 1e-9),
    "MultiAnalytic": lambda f: ma.MultiAnalytic(f, 2),
    "hinf_norm": lambda f: ma.hinf_norm(f, 2),
    "eval_at_creation": lambda f: fs.eval_at_creation(f, 2),
    "radius_estimate": lambda f: fs.radius_estimate(f, 1),
    "cayley_forward": fs.cayley_forward,
    "cayley_inverse": fs.cayley_inverse,
    "neumann_inverse": fs.neumann_inverse,
    "eval_report": lambda f: fs.eval_report(f, PAIR),
    "PluriharmonicFn": lambda f: ph.PluriharmonicFn(f, f),
    "real_part": ph.real_part,
    "kernel_from_series": tr.kernel_from_series,
    "positivity_equivalence_check": lambda f: tr.positivity_equivalence_check(f, 1, [0.5]),
    "CaratheodoryProblem": cara.CaratheodoryProblem,
    "CFProblem": cara.CFProblem,
}


@pytest.mark.parametrize("site", SQUARE_SITES)
def test_every_square_coefficient_refusal_has_one_wording(site):
    with pytest.raises(InputError, match=r"needs square coefficients, got \(2, 1\)$"):
        SQUARE_SITES[site](TALL)


QUARTER = 0.25 * np.eye(1)
H = ph.PluriharmonicFn(fs.FreeSeries(1, 1, (1, 1), {(): np.eye(1), (1,): QUARTER}),
                       fs.FreeSeries(1, 1, (1, 1), {(1,): QUARTER}))  # 1 + Re z / 2, n = 1
FT = FockTrunc(1, 2)

LETTER_SITES = {
    "reconstruction_operator": lambda X: fock.reconstruction_operator(FT, X),
    "berezin_kernel": lambda X: fock.berezin_kernel(FT, X),
    "poisson_kernel": lambda X: fock.poisson_kernel(FT, X),
    "dense_resolvent": lambda X: fock.dense_resolvent(FT, X),
    "poisson_at": lambda X: ph.poisson_at(H, X, 0.9, 2),
    "eval_scope": lambda X: fs.eval_report(H.analytic, X),
    "value_at": lambda X: ph.value_at(H, X),
    "poisson_transform_of": lambda X: tr.poisson_transform_of(tr.MomentFunctional(H), X),
    "fantappie_transform": lambda X: tr.fantappie_transform(tr.MomentFunctional(H), X),
}


@pytest.mark.parametrize("site", LETTER_SITES)
def test_every_letter_count_refusal_has_one_wording(site):
    """A two-operator tuple where one letter is expected, inside the ball
    and nilpotent, so only the letter count can refuse it."""
    with pytest.raises(InputError, match=r"^tuple has 2 operators, [a-zA-Z ]+ expects 1$"):
        LETTER_SITES[site](PAIR)


def test_no_module_imports_another_modules_private_names():
    """A private name stays in its module (dunders such as __version__ are
    public): attributes such as FreeSeries._built are used, never imported."""
    bad = []
    for path in sorted(Path(freefock.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                bad += [f"{path.name}:{node.lineno} {alias.name}"
                        for alias in node.names
                        if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert bad == []
