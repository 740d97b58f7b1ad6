"""Command-line front end: JSON in, JSON out, scriptable exit codes.

Exit codes: 0 ok/feasible, 1 infeasible, 3 input or output error, 4
numerical-scope error, 5 internal error (any other exception, a fault of
the program and never a verdict; its traceback goes to stderr).  Code 2
(no convergence) is retired and never emitted: the extension is computed
in closed form.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback

from . import __version__
from . import caratheodory as cara
from . import jsonio
from . import multianalytic as ma
from . import pluriharmonic as ph
from . import series as fs
from .errors import InfeasibleError, InputError, ScopeError
from .words import GradedBasis, decode_letters, word_to_string

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 3
EXIT_SCOPE = 4
EXIT_INTERNAL = 5


def _at_least(low):
    """The argparse type of the ints >= low: others are usage errors (exit 3)."""
    def parse(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"{text} is below {low}")
        return int(text)
    parse.__name__ = "int"  # names the type in argparse's message for a non-integer
    return parse


def _emit(payload, args):
    payload["version"] = __version__
    if getattr(args, "seed", None) is not None:
        payload["seed"] = args.seed
    if getattr(args, "tol", None) is not None:
        payload.setdefault("tolerances", {})["tol"] = args.tol
    out = getattr(args, "output", None)
    # jsonio rejects inf and nan before any output exists: the file goes
    # through a temporary that is removed on error, stdout gets every byte
    try:
        if out:
            jsonio.write_json_atomic(payload, out)
        else:
            data = memoryview(jsonio.to_bytes(payload))
            sys.stdout.flush()
            while data:  # an unbuffered (PYTHONUNBUFFERED) raw write may take a part
                data = data[sys.stdout.buffer.write(data):]
            sys.stdout.buffer.flush()
    except ValueError:
        raise ScopeError("the result is not finite (overflow); nothing written") from None
    except OSError as exc:
        if not out:
            raise  # stdout closed by its reader: main reports it
        raise InputError(f"--output {out} cannot be written: {exc.strerror}") from None


def cmd_basis(args):
    basis = GradedBasis(args.n, args.deg)
    _emit(
        {"n": args.n, "deg": args.deg, "size": basis.size,
         "words": [word_to_string(w) for w in basis.words]},
        args,
    )
    return EXIT_OK


def cmd_check(args):
    prob = jsonio.json_to_problem(jsonio.load_json(args.problem))
    rep = cara.check_feasibility(prob, tol=args.tol)
    payload = {"feasible": rep.feasible, "min_eig": rep.min_eig,
               "matrix_dim": rep.matrix_dim, "tol": rep.tol}
    if rep.min_eig_atol is not None:  # structured: lambda_min(T_m) - min_eig <= min_eig_atol
        payload["min_eig_atol"] = rep.min_eig_atol
    _emit(payload, args)
    return EXIT_OK if rep.feasible else EXIT_INFEASIBLE


def cmd_extend(args):
    prob = jsonio.json_to_problem(jsonio.load_json(args.problem))
    ext = cara.extend(prob, args.target_degree, tol=args.tol)
    rep = cara.verify_solution(prob, ext, samples=args.samples, seed=args.seed)
    payload = jsonio.extension_to_json(ext)
    payload["verification"] = {
        "passed": rep.passed,
        "checks": {k: {"ok": ok, "value": v} for k, (ok, v) in rep.checks.items()},
    }
    _emit(payload, args)
    return EXIT_OK if rep.passed else EXIT_SCOPE


def cmd_cayley(args):
    f = jsonio.json_to_series(jsonio.load_json(args.series))
    if args.cutoff is not None:  # rebuilt through the input check: no word past the cutoff
        degrees = {k: (decode_letters(codes, f.n, k), c) for k, (codes, c) in f.blocks.items()}
        f = fs.from_degrees(f.n, args.cutoff, f.shape, degrees)
    out = fs.cayley_forward(f) if args.direction == "forward" else fs.cayley_inverse(f)
    _emit({"direction": args.direction, "series": jsonio.series_to_json(out)}, args)
    return EXIT_OK


def cmd_eval(args):
    f = jsonio.json_to_series(jsonio.load_json(args.series))
    x = jsonio.json_to_tuple(jsonio.load_json(args.tuple))
    rep = fs.eval_report(f, x)
    _emit(
        {"value": jsonio.matrix_to_json(rep.value), "exact": rep.exact,
         "tail_estimate": rep.tail_estimate,
         "jsr": {"kmax": rep.jsr.kmax, "value": rep.jsr.value,
                 "nilpotent_order": rep.jsr.nilpotent_order}},
        args,
    )
    return EXIT_OK


def cmd_norm(args):
    f = jsonio.json_to_series(jsonio.load_json(args.series))
    rep = ma.hinf_norm(f, args.trunc)
    payload = {"norm_lower_bound": rep.value, "trunc": args.trunc}
    if rep.rtol is not None:  # structured: ||f(S^(trunc))|| <= value (1 + norm_rtol)
        payload["norm_rtol"] = rep.rtol
    _emit(payload, args)
    return EXIT_OK


def cmd_poisson(args):
    h = jsonio.json_to_pluriharmonic(jsonio.load_json(args.symbol))
    x = jsonio.json_to_tuple(jsonio.load_json(args.tuple))
    value = ph.poisson_at(h, x, args.radius, args.trunc)
    _emit({"value": jsonio.matrix_to_json(value), "trunc": args.trunc, "radius": args.radius}, args)
    return EXIT_OK


def cmd_selftest(args):
    from . import selftest

    if args.list:
        for name, _ in selftest.SUITES:
            print(name)
        return EXIT_OK
    ok = selftest.run_all(seed=args.seed)
    return EXIT_OK if ok else EXIT_SCOPE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="freefock",
        description="Free-semigroup operator models on truncated Fock spaces: "
        "Caratheodory interpolation, Cayley transforms, and noncommutative "
        "Poisson transforms.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="print the graded word basis")
    p.add_argument("n", type=int)
    p.add_argument("deg", type=int)
    p.add_argument("--output")

    p = sub.add_parser("check", help="Caratheodory feasibility of a problem file")
    p.add_argument("problem")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--output")

    p = sub.add_parser("extend", help="solve for a PSD multi-Toeplitz extension")
    p.add_argument("problem")
    p.add_argument("--target-degree", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--samples", type=_at_least(1), default=20)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--output")

    p = sub.add_parser("cayley", help="Cayley transform of a series file")
    p.add_argument("direction", choices=["forward", "inverse"])
    p.add_argument("series")
    p.add_argument("--cutoff", type=int)
    p.add_argument("--output")

    p = sub.add_parser("eval", help="evaluate a series at an operator tuple")
    p.add_argument("series")
    p.add_argument("tuple")
    p.add_argument("--output")

    p = sub.add_parser("norm", help="certified lower bound for the sup norm")
    p.add_argument("series")
    p.add_argument("--trunc", type=int, default=4)
    p.add_argument("--output")

    p = sub.add_parser("poisson", help="Poisson transform of a pluriharmonic symbol")
    p.add_argument("symbol")
    p.add_argument("tuple")
    p.add_argument("--trunc", type=int, default=6)
    p.add_argument("--radius", type=float, default=0.9)
    p.add_argument("--output")

    p = sub.add_parser("selftest", help="run the acceptance suites")
    p.add_argument("--seed", type=_at_least(0), default=20240901)
    p.add_argument("--list", action="store_true")

    return parser


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser, built once per process: parse_args leaves it unchanged
    and returns a fresh namespace on every call."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; map onto the input-error contract
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return globals()[f"cmd_{args.command}"](args)  # looked up per call, so it can be replaced
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ScopeError as exc:
        print(f"numerical scope error: {exc}", file=sys.stderr)
        return EXIT_SCOPE
    except BrokenPipeError:
        sys.stdout = None  # its reader has gone: nothing more is written, nor flushed at exit
        print("output error: stdout was closed by its reader", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
