"""freefock benchmark: closed-loop workloads through the public entry points.

    python3 bench/run.py --workload {interpolate,evaluate,acceptance}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout that holds src/freefock.  One run:

1. generates the workload's fixtures from the seed in a separate process
   (bench/fixtures.py, numpy only, verdicts fixed by construction);
2. starts PROBES set-up-only workers, each timed from spawn to READY;
3. runs K passes of the fixed request list, each in a fresh worker
   (bench/worker.py), so every pass starts with cold caches.  One client
   sends the requests in a closed loop.  K = round(S / NOMINAL_PASS_S),
   so a run measures about S seconds on the machine the nominal pass
   times were taken on (2 cores, OpenBLAS) and the sample counts do not
   depend on the speed of the code under test.  The acceptance workload
   is one request per pass, the whole 13-suite gate, so there req_p50_s
   is the median gate time and req_tail_s the slowest (fewer than 11
   samples); per-suite times are per-layer metrics;
4. checks every output after the timed loop (bench/check.py), including a
   canary: a deliberately wrong copy of each extend, poisson, cayley and
   gate output must be rejected;
5. prints an info line (environment, sample counts, failures) and, as the
   last line, {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json.  With
--trace 1, plain and traced passes alternate (bench/tracing.py wraps the
package's functions from outside) and the metrics are the per-layer ones;
trace.overhead_s is the traced minus the plain median pass time.  The full
record of a run, with per-request spans and per-call size rows, is written
to .bench_out/<workload>-s<seed>-t<trace>.json.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import check
import fixtures
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".bench_out")

# A run makes round(S / NOMINAL_PASS_S) passes: 4, 6 and 3 passes at
# S = 30.  Measured pass times at the commit that introduced the benchmark
# (2 cores, OpenBLAS 0.3.31, numpy 2.4) are about 7.3, 4.5 and 12.3 s.
NOMINAL_PASS_S = {"interpolate": 7.5, "evaluate": 5.0, "acceptance": 10.0}
PROBES = 5
TAIL_BEYOND = 10
# No pass starts after LAST_START_FACTOR * S (at most LAST_START_S) and
# every worker is killed at RUN_DEADLINE_S, so a much slower build still
# ends a run within 180 s; at normal speed every planned pass runs.
LAST_START_FACTOR = 1.6
LAST_START_S = 80.0
RUN_DEADLINE_S = 160.0

COMMANDS = ("check", "extend", "eval", "norm", "poisson", "cayley")
STAT_FIELDS = {"calls": "calls", "self_s": "self_s", "bytes": "bytes", "iterations": "extra"}


class BenchError(RuntimeError):
    pass


def median(values):
    return float(statistics.median(values)) if values else 0.0


# -- workers -----------------------------------------------------------------------


def spawn(run_dir, tag, extra, deadline):
    """Start one worker; return (set-up seconds, parsed result file)."""
    result = os.path.join(run_dir, f"result-{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, "--plan", "plan.json",
           "--out-dir", f"out-{tag}", "--result", result, *extra]
    with open(os.path.join(run_dir, f"worker-{tag}.log"), "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=run_dir, stdout=subprocess.PIPE, stderr=log, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], max(1.0, deadline - time.monotonic()))
            line = proc.stdout.readline() if ready else ""
            setup = time.perf_counter() - start
            if line.strip() != "READY":
                raise BenchError(f"worker {tag} did not become ready")
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except (BenchError, subprocess.TimeoutExpired) as exc:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker {tag} failed: {exc}") from exc
        finally:
            proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited {proc.returncode}; see {log.name}")
    if not os.path.exists(result):
        return setup, None
    with open(result, encoding="utf-8") as fh:
        return setup, json.load(fh)


def run_passes(run_dir, kinds, seconds):
    t0 = time.monotonic()
    last_start = min(LAST_START_S, LAST_START_FACTOR * seconds)
    deadline = t0 + RUN_DEADLINE_S
    setups, passes = [], []
    for k in range(PROBES):
        setup, _ = spawn(run_dir, f"probe{k}", ["--probe"], deadline)
        setups.append(setup)
    for k, kind in enumerate(kinds):
        if k and time.monotonic() - t0 > last_start and kind in {p["kind"] for p in passes}:
            break
        extra = ["--trace"] if kind == "traced" else []
        setup, res = spawn(run_dir, f"pass{k}", extra, deadline)
        setups.append(setup)
        res.update(kind=kind, tag=f"pass{k}")
        passes.append(res)
    return setups, passes


# -- checking ----------------------------------------------------------------------


def check_passes(plan, passes, run_dir):
    """Count failed requests over all passes; identical outputs are checked once."""
    by_id = {r["id"]: r for r in plan["requests"]}
    verdicts, failures, attempted = {}, [], 0
    for res in passes:
        out_dir = os.path.join(run_dir, f"out-{res['tag']}")
        for done in res["requests"]:
            attempted += 1
            path = os.path.join(out_dir, done["id"] + ".json")
            content = open(path, "rb").read() if os.path.exists(path) else None
            key = (done["id"], done["exit"], content)
            if key not in verdicts:
                verdicts[key] = check.check_request(by_id[done["id"]], done["exit"], path, run_dir)
            ok, reason = verdicts[key]
            if not ok:
                failures.append(f"{res['tag']}/{done['id']} ({by_id[done['id']]['op']}): {reason}")
    canaries = check.canary(plan["requests"], os.path.join(run_dir, f"out-{passes[0]['tag']}"), run_dir)
    return attempted, failures, canaries


# -- metrics -----------------------------------------------------------------------


def tail(latencies):
    """Highest latency with at least TAIL_BEYOND samples above it: (value,
    percentile level, sample count).  With too few samples for that, the
    maximum at level 100."""
    lat = sorted(latencies)
    n = len(lat)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return lat[k], 100.0 * (k + 1) / n, n


def end_to_end(plain, setups):
    lat = [r["s"] for p in plain for r in p["requests"]]
    value, level, n = tail(lat)
    metrics = {
        "wall_s": median([p["wall_s"] for p in plain]),
        "req_p50_s": median(lat),
        "req_tail_s": value,
        "setup_s": median(setups),
        "peak_rss_mb": median([p["max_rss_kb"] for p in plain]) / 1024.0,
    }
    return metrics, {"req_tail_level_pct": level, "req_tail_samples": n}


def slope(rows):
    """Least-squares slope of log(seconds) against log(d p), one point per
    size (the median call time at that size)."""
    by_size = {}
    for _, n, d, p, sec in rows:
        by_size.setdefault(d * p, []).append(sec)
    pts = [(math.log(s), math.log(max(median(v), 1e-9))) for s, v in by_size.items() if s > 0]
    if len(pts) < 2:
        return None
    x = np.array([a for a, _ in pts])
    y = np.array([b for _, b in pts])
    return float(np.polyfit(x, y, 1)[0])


def traced_metrics(trace):
    stats = trace["stats"]
    out = {}
    for stem, keys in tracing.GROUPS.items():
        for field, src in STAT_FIELDS.items():
            out[f"{stem}.{field}"] = sum(stats[k][src] for k in keys if k in stats)
        calls = out[f"{stem}.calls"]
        out[f"{stem}.hit_ratio"] = sum(stats[k]["hits"] for k in keys if k in stats) / calls if calls else 0.0
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = sum(s["self_s"] for k, s in stats.items() if k.split(".")[0] == layer)
    return out


def per_layer(plan, plain, traced):
    values = {}
    per_pass = [traced_metrics(p["trace"]) for p in traced]
    for name in per_pass[0]:
        values[name] = median([m[name] for m in per_pass])
    rows = [tuple(r) for p in traced for r in p["trace"]["rows"]]
    not_measured = []
    for name, keys in tracing.SCALING.items():
        s = slope([r for r in rows if r[0] in keys])
        values[f"scaling.{name}.slope"] = 0.0 if s is None else s
        if s is None:
            not_measured.append(f"scaling.{name}.slope")
    ops = {r["id"]: r for r in plan["requests"]}
    for cmd in COMMANDS:
        lat = [r["s"] for p in plain for r in p["requests"] if ops[r["id"]].get("argv", [""])[0] == cmd]
        values[f"cli.{cmd}.p50_s"] = median(lat)
    for name in fixtures.SUITES:
        lat = [r["suites"][name] for p in plain for r in p["requests"] if name in r.get("suites", {})]
        values[f"selftest.{name}.s"] = median(lat)
    values["trace.overhead_s"] = median([p["wall_s"] for p in traced]) - median([p["wall_s"] for p in plain])
    absent = sorted({k for p in traced for k in p["trace"]["absent"]})
    values["trace.absent_targets"] = len(absent)
    not_measured += sorted({k for p in traced for k in p["trace"]["unreadable"]})
    return values, absent, not_measured


# -- environment -------------------------------------------------------------------


def blas_threads():
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def git_commit():
    """The checked-out commit, read from .git without running git; None
    when the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    if not os.path.isfile(os.path.join(git, "HEAD")):
        return None
    ref = _read(os.path.join(git, "HEAD")).strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if os.path.isfile(os.path.join(git, ref)):
        return _read(os.path.join(git, ref)).strip()
    if os.path.isfile(os.path.join(git, "packed-refs")):
        for line in _read(os.path.join(git, "packed-refs")).splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def max_dim():
    """The default size cap, read from the source so the package stays unimported."""
    for line in _read(os.path.join(ROOT, "src", "freefock", "linalg.py")).splitlines():
        if line.startswith("MAX_DIM"):
            return line.split("=", 1)[1].strip()
    return None


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"), "threads": blas_threads()},
        "max_dim": max_dim(),
        "git_commit": git_commit(),
        "load": "one closed-loop client; BLAS threads as configured, at most nproc",
    }


# -- main --------------------------------------------------------------------------


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=fixtures.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "freefock", "__init__.py")):
        print(f"no freefock sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = load_spec()

    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_dir = os.path.join(OUT_ROOT, f"{name}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        subprocess.run([sys.executable, os.path.join(HERE, "fixtures.py"), "--workload", args.workload,
                        "--seed", str(args.seed), "--out", run_dir], check=True, timeout=120)
        with open(os.path.join(run_dir, "plan.json"), encoding="utf-8") as fh:
            plan = json.load(fh)
        passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        kinds = ["plain"] * passes if not args.trace else ["plain", "traced"] * max(1, passes // 2)
        setups, results = run_passes(run_dir, kinds, args.seconds)
        attempted, failures, canaries = check_passes(plan, results, run_dir)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark run failed: {exc}; logs in {run_dir}", file=sys.stderr)
        return 1
    plain = [r for r in results if r["kind"] == "plain"]
    traced = [r for r in results if r["kind"] == "traced"]

    e2e, tail_info = end_to_end(plain, setups)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": {"plain": len(plain), "traced": len(traced), "probes": PROBES},
        "requests_per_pass": len(plan["requests"]), "attempted": attempted,
        "failed": len(failures), "fail_frac": len(failures) / attempted,
        "failures": failures[:20], "canary_detected": canaries,
        **tail_info, "env": environment(),
    }
    if args.trace:
        values, absent, not_measured = per_layer(plan, plain, traced)
        values["fail_frac"] = len(failures) / attempted
        info.update(absent=absent, not_measured=not_measured, plain_end_to_end=e2e)
        wanted = spec["per_layer"]
    else:
        values = e2e
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"BENCHMARK.json names metrics this benchmark does not compute: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    detected = bool(canaries) and all(canaries.values())
    result = {"correct": not failures and detected, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}

    record = {"info": info, "result": result, "passes": results, "setup_samples": setups}
    with open(os.path.join(OUT_ROOT, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
