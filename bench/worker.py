"""Benchmark worker: one fresh process runs one pass over a request list.

    python3 bench/worker.py --root ROOT --plan PLAN --out-dir DIR --result FILE
                            [--trace] [--probe]

Set-up is the import of freefock from ROOT/src and the load of the plan;
the worker then prints READY on stdout, which the parent times as set-up.
With --probe it exits there.  Otherwise it sends the requests one after
another (a closed loop with one client) through the public entry points,
freefock.cli.main and, for the acceptance gate, freefock.selftest.run_suite
on each suite, and writes the exit code and latency of each (and each
suite's time), the pass wall time and the peak resident set to the result
file.  Request outputs go to DIR; the parent checks them later.
With --trace the tracing wrappers are installed before READY and their
report goes into the result file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def run_gate(selftest, req, out_dir):
    """Run the acceptance suites in order; write their pass flags as the
    request's output and return the seconds each took."""
    flags, seconds = {}, {}
    for name in req["suites"]:
        t0 = time.perf_counter()
        passed, detail, _ = selftest.run_suite(name, req["seed"])
        seconds[name] = time.perf_counter() - t0
        flags[name] = {"passed": bool(passed), "detail": detail}
    with open(os.path.join(out_dir, req["id"] + ".json"), "w", encoding="utf-8") as fh:
        json.dump(flags, fh)
    return seconds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--plan", required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import freefock
    from freefock import cli, selftest

    if not os.path.abspath(freefock.__file__).startswith(src + os.sep):
        sys.exit(f"freefock imported from {freefock.__file__}, not from {src}")
    with open(args.plan, encoding="utf-8") as fh:
        requests = json.load(fh)["requests"]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    print("READY", flush=True)
    if args.probe:
        return
    # library prints must not reach the parent's READY pipe
    sys.stdout = sys.stderr

    os.makedirs(args.out_dir, exist_ok=True)
    done = []
    start = time.perf_counter()
    for req in requests:
        if tracer:
            tracer.begin_request(req["id"])
        entry = {"id": req["id"]}
        t0 = time.perf_counter()
        try:
            if req["op"] == "gate":
                entry["suites"] = run_gate(selftest, req, args.out_dir)
                code = 0
            else:
                code = cli.main([a.replace("OUT", args.out_dir) for a in req["argv"]])
        except Exception:
            traceback.print_exc()
            code = -1
        entry.update(exit=code, s=time.perf_counter() - t0)
        done.append(entry)
    wall = time.perf_counter() - start

    result = {
        "wall_s": wall,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "requests": done,
    }
    if tracer:
        tracer.begin_request(None)
        result["trace"] = tracer.report()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
