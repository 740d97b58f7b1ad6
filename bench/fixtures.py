"""Fixture generator: writes one workload's request list and its inputs.

    python3 bench/fixtures.py --workload interpolate --seed 7 --out DIR

Writes DIR/plan.json and the JSON input files under DIR/in/.  Each request
carries its expected exit code.  The generator runs in its own process and
uses numpy only, so it cannot warm any cache of the package under test, and
every verdict holds by construction:

* feasible data are moments of a positive vector-state functional plus a
  margin on b_0 (a Gram matrix, so T_m is positive definite), or degree-1
  data b_0 = I, b_i = c U_i with U_i unitary, whose T_m has the closed-form
  smallest eigenvalue 1 - c sqrt(n);
* infeasible data have b_0 = I and a degree-k slice of column norm 1.25,
  which breaks the necessary bound ||sum_{|w|=k} b_w^* b_w||^(1/2) <= ||b_0||.

The seed draws the numbers; the list of request shapes is fixed per
workload, so runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

import npref

WORKLOADS = ("interpolate", "evaluate", "acceptance")

# The suites of freefock.selftest, in its run order.
SUITES = [
    "creation_algebra",
    "cayley_bijection",
    "cayley_coefficient_oracle",
    "poisson_factorization",
    "poisson_transform_identities",
    "mean_value",
    "harnack_and_coefficients",
    "fejer",
    "feasibility_oracle",
    "extension_solver",
    "reduction_roundtrip",
    "positivity_equivalences",
    "canary",
]

# interpolate: (op, data kind, n, m, p, deg, copies).  For extend, deg is
# the target degree M; for moment data, the degree of the state vectors, so
# moments of longer words vanish and only the shorter ones are written.
# "easy" data extend by zeros, so one Dykstra iteration suffices and
# assembly dominates; "boundary" data sit near the positivity boundary, so
# the solver iterates about a thousand times.  The d = 127 checks are the
# typical request: repeated with fresh data, they put the median latency on
# a plateau of like requests and reuse the shape's caches.  d counts the
# words of T's degree.
INTERPOLATE = [
    ("check", "moments", 2, 8, 1, 2, 1),        # d = 511
    ("check", "moments", 2, 6, 1, 6, 4),        # d = 127
    ("extend", "easy", 2, 1, 1, 7, 1),          # d = 255
    ("check", "moments", 1, 62, 2, 62, 1),      # d = 63
    ("check", "infeasible", 2, 3, 1, None, 1),
    ("check", "moments", 2, 6, 1, 6, 4),
    ("extend", "boundary", 2, 1, 1, 5, 1),      # d = 63
    ("check", "moments", 3, 4, 2, 4, 1),        # d = 121
    ("check", "moments", 2, 6, 1, 6, 4),
    ("extend", "easy", 3, 1, 1, 4, 1),          # d = 121
    ("check", "moments", 2, 5, 2, 5, 1),        # d = 63
    ("extend", "infeasible", 2, 1, 1, 6, 1),
    ("check", "moments", 3, 5, 1, 2, 1),        # d = 364
    ("check", "moments", 2, 6, 1, 6, 4),
    ("extend", "easy", 2, 1, 1, 7, 1),          # d = 255
    ("check", "moments", 1, 126, 1, 126, 1),    # d = 127
    ("check", "infeasible", 3, 2, 2, None, 1),
    ("extend", "easy", 2, 1, 2, 6, 1),          # d = 127
    ("check", "moments", 2, 6, 1, 6, 4),
    ("check", "moments", 2, 7, 1, 3, 1),        # d = 255
    ("extend", "infeasible", 3, 2, 1, 4, 1),
    ("check", "moments", 2, 6, 2, 4, 1),        # d = 127
    ("extend", "easy", 3, 1, 2, 4, 1),          # d = 121
    ("check", "infeasible", 1, 70, 1, None, 1),
    ("extend", "easy", 2, 1, 1, 7, 1),          # d = 255
    ("check", "moments", 1, 90, 1, 90, 1),      # d = 91
]

# evaluate: (op, n, cutoff, p, dim, truncation or None, copies).  dim is the
# tuple dimension for poisson and eval; for cayley, the top degree of the
# nonzero coefficients (None: every word).  Sparse cayley inputs take the
# pairwise series.multiply path, dense ones the blocked geometric sum.
# Poisson requests need trunc >= dim + cutoff for the mean value identity to
# be exact; eval tuples have dim <= cutoff + 1, so the series terminates.
# The n = 2, cutoff 6 evaluation is repeated (16 of 41 requests) as above,
# so req_p50_s tracks warm n = 2 evals.
EVALUATE = [
    ("poisson", 2, 2, 1, 6, 8, 1),              # d = 511
    ("eval", 2, 6, 2, 4, None, 4),
    ("cayley_forward", 2, 7, 2, None, None, 1),
    ("norm", 2, 8, 1, None, 8, 1),              # d = 511
    ("eval", 3, 5, 1, 5, None, 1),
    ("cayley_inverse", 3, 5, 2, None, None, 1),
    ("eval", 2, 6, 2, 4, None, 4),
    ("poisson", 3, 1, 1, 4, 5, 1),              # d = 364
    ("eval", 1, 62, 2, 6, None, 1),
    ("cayley_forward", 1, 62, 2, None, None, 1),
    ("norm", 3, 4, 2, None, 4, 1),              # d = 121
    ("eval", 2, 6, 2, 4, None, 4),
    ("poisson", 2, 3, 2, 3, 7, 1),              # d = 255
    ("cayley_inverse", 2, 8, 1, None, None, 1),
    ("norm", 2, 7, 2, None, 7, 1),              # d = 255
    ("poisson", 1, 3, 2, 6, 62, 1),             # d = 63
    ("eval", 2, 6, 2, 4, None, 4),
    ("cayley_forward", 3, 4, 2, None, None, 1),
    ("eval", 3, 4, 2, 5, None, 1),
    ("poisson", 2, 2, 1, 6, 8, 1),              # d = 511
    ("cayley_inverse", 2, 6, 2, None, None, 1),
    ("norm", 1, 62, 2, None, 62, 1),            # d = 63
    ("poisson", 2, 2, 2, 4, 6, 1),              # d = 127
    ("eval", 2, 7, 1, 6, None, 1),
    ("cayley_forward", 2, 8, 1, None, None, 1),
    ("cayley_inverse", 1, 40, 1, None, None, 1),
    ("norm", 2, 6, 1, None, 6, 1),              # d = 127
    ("cayley_forward", 2, 8, 2, 2, None, 1),    # sparse, d = 511
    ("cayley_inverse", 3, 5, 2, 2, None, 1),    # sparse, d = 364
]


def expand(specs):
    """One entry per request: each spec repeated `copies` times."""
    return [spec[:-1] for spec in specs for _ in range(spec[-1])]


def _gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# -- interpolation data ---------------------------------------------------------


def moment_data(rng, n, p, m, states=2, margin=0.05):
    """b_w = sum_k t_k sum_beta xi_k[beta w] xi_k[beta]^* for states xi_k of
    degree m, so b_w = 0 beyond length m; b_0 is raised by margin ||b_0||."""
    basis = npref.words(n, m)
    index = {w: i for i, w in enumerate(basis)}
    coeffs = {w: np.zeros((p, p), dtype=complex) for w in basis}
    for _ in range(states):
        weight = float(rng.uniform(0.3, 1.5))
        xi = _gaussian(rng, (len(basis), p))
        for w in basis:
            head = [b for b in basis if len(b) + len(w) <= m]
            src = np.array([index[b] for b in head])
            dst = np.array([index[b + w] for b in head])
            coeffs[w] += weight * (xi[dst].T @ xi[src].conj())
    b0 = coeffs[""]
    coeffs[""] = b0 + margin * np.linalg.norm(b0, 2) * np.eye(p)
    return coeffs


def degree_one_data(rng, n, p, c, diagonal=False):
    """b_0 = I, b_i = c U_i with U_i unitary; smallest eigenvalue of T_1 is
    1 - c sqrt(n), and of the zero extension at least 1 - 2 c sqrt(n).

    diagonal=True draws U_i = W D_i W^* with D_i diagonal phases and one W
    for all i: a unitary change of coordinates of the scalar instance, so the
    solver's iteration count does not depend on the seed."""
    coeffs = {"": np.eye(p, dtype=complex)}
    w = npref.random_unitary(rng, p)
    for i in range(1, n + 1):
        if diagonal:
            u = w @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, p))) @ w.conj().T
        else:
            u = npref.random_unitary(rng, p)
        coeffs[str(i)] = c * u
    return coeffs


def infeasible_data(rng, n, m, p):
    """b_0 = I, small coefficients, and one degree-k slice of norm 1.25."""
    k = int(rng.integers(1, m + 1))
    coeffs = {"": np.eye(p, dtype=complex)}
    for w in npref.words(n, m)[1:]:
        coeffs[w] = 0.05 * _gaussian(rng, (p, p))
    top = [w for w in coeffs if len(w) == k]
    scale = 1.25 / npref.gram_norm([coeffs[w] for w in top])
    for w in top:
        coeffs[w] = scale * coeffs[w]
    return coeffs


def problem_json(n, m, coeffs):
    p = coeffs[""].shape[0]
    return {"n": n, "m": m, "block_size": p, "coefficients": npref.coeffs_to_json(coeffs)}


def interpolate_requests(rng, write):
    out = []
    for k, (op, kind, n, m, p, deg) in enumerate(expand(INTERPOLATE)):
        rid = f"r{k:02d}"
        if kind == "moments":
            coeffs = moment_data(rng, n, p, deg)
        elif kind == "easy":
            coeffs = degree_one_data(rng, n, p, 0.4 / np.sqrt(n))
        elif kind == "boundary":
            coeffs = degree_one_data(rng, n, p, 0.6, diagonal=True)
        else:
            coeffs = infeasible_data(rng, n, m, p)
        path = write(rid, problem_json(n, m, coeffs))
        expect = 1 if kind == "infeasible" else 0
        if op == "check":
            argv = ["check", path]
            deg = m
        else:
            seed = int(rng.integers(1 << 31))
            argv = ["extend", path, "--target-degree", str(deg), "--seed", str(seed)]
        out.append({
            "id": rid, "op": op, "argv": argv + ["--output", f"OUT/{rid}.json"],
            "expect": expect, "inputs": {"problem": path},
            "shape": {"n": n, "d": len(npref.words(n, deg)), "p": p, "kind": kind},
        })
    return out


# -- evaluation data --------------------------------------------------------------


def random_coeffs(rng, n, cutoff, p, scale, min_degree=0, max_degree=None):
    top = cutoff if max_degree is None else max_degree
    return {w: scale * _gaussian(rng, (p, p)) for w in npref.words(n, top) if len(w) >= min_degree}


def series_json(n, cutoff, p, coeffs):
    return {"n": n, "cutoff": cutoff, "shape": [p, p], "coefficients": npref.coeffs_to_json(coeffs)}


def tuple_json(mats):
    return {"n": len(mats), "dim": mats[0].shape[0], "matrices": [npref.mat_to_json(x) for x in mats]}


def evaluate_requests(rng, write):
    out = []
    for k, (op, n, cutoff, p, dim, trunc) in enumerate(expand(EVALUATE)):
        rid = f"r{k:02d}"
        inputs = {}
        if op == "poisson":
            analytic = random_coeffs(rng, n, cutoff, p, 0.3)
            coanalytic = random_coeffs(rng, n, cutoff, p, 0.3, min_degree=1)
            inputs["symbol"] = write(rid + "_symbol", {
                "n": n, "cutoff": cutoff, "shape": [p, p],
                "analytic": npref.coeffs_to_json(analytic),
                "coanalytic": npref.coeffs_to_json(coanalytic),
            })
            inputs["tuple"] = write(rid + "_tuple", tuple_json(npref.nilpotent_tuple(rng, n, dim, 0.5)))
            argv = ["poisson", inputs["symbol"], inputs["tuple"], "--trunc", str(trunc), "--radius", "0.9"]
            d = len(npref.words(n, trunc))
        elif op == "eval":
            inputs["series"] = write(rid + "_series", series_json(n, cutoff, p, random_coeffs(rng, n, cutoff, p, 0.3)))
            inputs["tuple"] = write(rid + "_tuple", tuple_json(npref.nilpotent_tuple(rng, n, dim, 0.8)))
            argv = ["eval", inputs["series"], inputs["tuple"]]
            d = len(npref.words(n, cutoff))
        elif op == "norm":
            inputs["series"] = write(rid + "_series", series_json(n, cutoff, p, random_coeffs(rng, n, cutoff, p, 0.3)))
            argv = ["norm", inputs["series"], "--trunc", str(trunc)]
            d = len(npref.words(n, trunc))
        else:
            coeffs = random_coeffs(rng, n, cutoff, p, 0.3, min_degree=1, max_degree=dim)
            inputs["series"] = write(rid + "_series", series_json(n, cutoff, p, coeffs))
            argv = ["cayley", op.split("_")[1], inputs["series"]]
            d = len(npref.words(n, cutoff))
        out.append({
            "id": rid, "op": op, "argv": argv + ["--output", f"OUT/{rid}.json"],
            "expect": 0, "inputs": inputs, "shape": {"n": n, "d": d, "p": p},
        })
    return out


def acceptance_requests(seed):
    """One request: the whole gate, as `freefock selftest` runs it.  A single
    suite is too short to time steadily; each suite's time is still kept."""
    return [{"id": "r00", "op": "gate", "suites": SUITES, "seed": seed, "expect": 0}]


def generate(workload, seed, out_dir):
    in_dir = os.path.join(out_dir, "in")
    os.makedirs(in_dir, exist_ok=True)

    def write(name, obj):
        rel = os.path.join("in", name + ".json")
        with open(os.path.join(out_dir, rel), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return rel

    seed %= 2**32  # numpy and run_suite take non-negative seeds
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "interpolate":
        requests = interpolate_requests(rng, write)
    elif workload == "evaluate":
        requests = evaluate_requests(rng, write)
    else:
        requests = acceptance_requests(seed)
    plan = {"workload": workload, "seed": seed, "requests": requests}
    with open(os.path.join(out_dir, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=1)
    return plan



def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
