"""Output checker: runs after the timed loop, untimed, with numpy only.

A request passes when its exit code is the one its fixture expects and,
for exit 0, its output agrees with an independent computation:

* check: the reported verdict is feasible;
* extend: verification.passed, prescribed_error == 0, and the prescribed
  coefficients come back bit for bit;
* poisson: the value equals h(X) at the nilpotent tuple (the Poisson mean
  value property) to 1e-9 relative;
* eval: the value equals sum_w A_w (x) X_w to 1e-9 relative;
* norm: ||sum_w A_w^* A_w||^(1/2) <= value <= sum_k ||slice_k||, the two
  bounds every compression norm obeys;
* cayley forward: g - f g = f; inverse: g + g f = f, word by word, to
  1e-9 relative to the largest term that makes up the word;
* gate: the pass flag of every acceptance suite.

canary() corrupts every good extend, poisson, cayley and gate output and
requires the checker to reject each corrupted copy.
"""

from __future__ import annotations

import json
import os

import numpy as np

import npref

RTOL = 1e-9


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(got, want):
    dev = float(np.linalg.norm(got - want, 2))
    return dev <= RTOL * (1.0 + float(np.linalg.norm(want, 2))), f"deviation {dev:.3e}"


def _series(obj):
    return npref.json_to_coeffs(obj["coefficients"])


def _check_extend(req, out, run_dir):
    prob = npref.json_to_coeffs(_load(os.path.join(run_dir, req["inputs"]["problem"]))["coefficients"])
    got = npref.json_to_coeffs(out["coefficients"])
    if not out["verification"]["passed"]:
        return False, "verification failed"
    if out["certificate"]["prescribed_error"] != 0:
        return False, f"prescribed_error {out['certificate']['prescribed_error']}"
    for w, c in prob.items():
        if w not in got or not np.array_equal(got[w], c):
            return False, f"prescribed coefficient {w!r} changed"
    return True, ""


def _check_poisson(req, out, run_dir):
    sym = _load(os.path.join(run_dir, req["inputs"]["symbol"]))
    mats = [npref.json_to_mat(m) for m in _load(os.path.join(run_dir, req["inputs"]["tuple"]))["matrices"]]
    want = npref.pluriharmonic_at(_series({"coefficients": sym["analytic"]}),
                                  _series({"coefficients": sym["coanalytic"]}), mats)
    return _close(npref.json_to_mat(out["value"]), want)


def _check_eval(req, out, run_dir):
    f = _series(_load(os.path.join(run_dir, req["inputs"]["series"])))
    mats = [npref.json_to_mat(m) for m in _load(os.path.join(run_dir, req["inputs"]["tuple"]))["matrices"]]
    if not out["exact"]:
        return False, "nilpotent evaluation not reported exact"
    return _close(npref.json_to_mat(out["value"]), npref.eval_sum(f, mats))


def _check_norm(req, out, run_dir):
    f = _series(_load(os.path.join(run_dir, req["inputs"]["series"])))
    trunc = out["trunc"]
    f = {w: c for w, c in f.items() if len(w) <= trunc}
    lower = npref.gram_norm(list(f.values()))
    upper = sum(npref.gram_norm([c for w, c in f.items() if len(w) == k])
                for k in {len(w) for w in f})
    value = out["norm_lower_bound"]
    slack = RTOL * (1.0 + upper)
    ok = lower - slack <= value <= upper + slack
    return ok, f"norm {value} outside [{lower}, {upper}]"


def _check_cayley(req, out, run_dir):
    f = _series(_load(os.path.join(run_dir, req["inputs"]["series"])))
    g = _series(out["series"])
    cutoff = out["series"]["cutoff"]
    if out["direction"] == "forward":  # g - f g = f
        left, right, sign = f, g, -1.0
    else:                              # g + g f = f
        left, right, sign = g, f, 1.0
    prod = npref.series_product(left, right, cutoff)
    # each word's roundoff allowance scales with the terms that make up
    # that word, so the geometric growth of g at high degree does not
    # loosen the check at low degree
    terms = npref.series_product({w: np.abs(c) for w, c in left.items()},
                                 {w: np.abs(c) for w, c in right.items()}, cutoff)
    for w in set(f) | set(g) | set(prod):
        lhs = g.get(w, 0) + sign * prod.get(w, 0)
        dev = float(np.max(np.abs(lhs - f.get(w, 0))))
        scale = 1.0 + max(float(np.max(np.abs(s[w]))) for s in (f, g, terms) if w in s)
        if dev > RTOL * scale:
            return False, f"Cayley identity deviation {dev:.3e} at word {w!r}"
    return True, ""


CHECKS = {
    "check": lambda req, out, run_dir: (bool(out["feasible"]), "reported infeasible"),
    "extend": _check_extend,
    "poisson": _check_poisson,
    "eval": _check_eval,
    "norm": _check_norm,
    "cayley_forward": _check_cayley,
    "cayley_inverse": _check_cayley,
    "gate": lambda req, out, run_dir: (
        all(out[name]["passed"] for name in req["suites"]),
        "failed suites: " + ", ".join(n for n in req["suites"] if not out[n]["passed"]),
    ),
}


def check_output(req, code, out, run_dir):
    """(ok, reason) for one request given its exit code and parsed output."""
    if code != req["expect"]:
        return False, f"exit {code}, expected {req['expect']}"
    if code != 0:
        return True, ""
    if out is None:
        return False, "no output written"
    try:
        return CHECKS[req["op"]](req, out, run_dir)
    except (KeyError, TypeError, ValueError) as exc:
        return False, f"malformed output: {exc!r}"


def check_request(req, code, out_path, run_dir):
    out = _load(out_path) if os.path.exists(out_path) else None
    return check_output(req, code, out, run_dir)


def _corrupt(req, out):
    """A copy of a good output with one deliberately wrong number."""
    out = json.loads(json.dumps(out))
    op = req["op"]
    if op == "extend":
        word = next(w for w in sorted(out["coefficients"]) if w)
        out["coefficients"][word][0][0][0] += 1e-3
    elif op == "poisson":
        out["value"][0][0][0] += 1e-6 * (1.0 + abs(out["value"][0][0][0]))
    elif op.startswith("cayley"):
        word = next(w for w in sorted(out["series"]["coefficients"]) if len(w) == 1)
        out["series"]["coefficients"][word][0][0][0] += 1e-6
    elif op == "gate":
        out[next(iter(out))]["passed"] = False
    else:
        raise ValueError(f"no canary for {op}")
    return out


CANARY_OPS = ("extend", "poisson", "cayley_forward", "cayley_inverse", "gate")


def canary(requests, out_dir, run_dir):
    """{op: rejected} for each op of CANARY_OPS in the plan: a corrupted
    copy of every good output of the op must be rejected."""
    detected = {}
    for req in requests:
        path = os.path.join(out_dir, req["id"] + ".json")
        if req["op"] not in CANARY_OPS or req["expect"] != 0 or not os.path.exists(path):
            continue
        good = _load(path)
        if check_output(req, 0, good, run_dir)[0]:
            rejected = not check_output(req, 0, _corrupt(req, good), run_dir)[0]
            detected[req["op"]] = detected.get(req["op"], True) and rejected
    return detected
