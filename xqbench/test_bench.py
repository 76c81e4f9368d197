#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 xqbench/test_bench.py

1. `xqbench --selftest`: the quantile and geometric-mean helpers and the
   text oracle on a hand-written document.
2. A smoke run (tiny inputs, three rounds) of every workload, untraced and
   traced: each must pass its checks and report every metric.
3. Negative tests: a corrupted expected answer (every workload) and a
   corrupted HTTP body (the traced run's serving probe) must make the run
   fail.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, trace=0, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--smoke"] + list(extra)
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=600)
    lines = [l for l in r.stdout.splitlines() if l.startswith("{")]
    return r.returncode, json.loads(lines[-1]) if lines else None, r.stderr


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    failures = []

    def check(ok, what, detail=""):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)
            if detail:
                print(detail[-2000:], file=sys.stderr)

    # run.py builds on first use; the selftest needs the binary.
    code, _, err = run(workloads[0])
    check(code == 0, "smoke %s trace 0" % workloads[0], err)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    st = subprocess.run([os.path.join(build_dir, "xqbench"), "--selftest"],
                        stderr=subprocess.PIPE, text=True)
    check(st.returncode == 0, "helpers selftest", st.stderr)

    for w in workloads:
        for trace in (0, 1):
            if w == workloads[0] and trace == 0:
                continue  # ran above
            code, res, err = run(w, trace)
            names = [m["name"] for m in
                     spec["per_layer" if trace else "end_to_end"]]
            ok = (code == 0 and res is not None and res["correct"] and
                  res["failed"] == 0 and res["attempted"] > 0 and
                  sorted(res["metrics"]) == sorted(names))
            check(ok, "smoke %s trace %d" % (w, trace), err)

    faults = [(w, 0, "expected") for w in workloads] + [
        (workloads[0], 1, "http-body")]
    for w, trace, fault in faults:
        code, res, err = run(w, trace, ["--fault", fault])
        ok = code != 0 and (res is None or not res["correct"])
        check(ok, "negative %s trace %d --fault %s fails the run" %
              (w, trace, fault), err)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
