#!/usr/bin/env python3
"""Builds and runs the xqc benchmark (see README.md in this directory).

    python3 xqbench/run.py --workload xmark_xqjoin --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
`xqbench` driver and `xqc_httpd` (Release, which the traced run's serving
probe starts) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs rebuild incrementally. The
last line of standard output is one JSON object: correct, attempted,
failed, and the metrics BENCHMARK.json lists (end_to_end with --trace 0,
per_layer with --trace 1), each with its unit. Exit code 0 only when the
run completed and every check passed.

Extra flags: --smoke (tiny inputs, three rounds) and --fault expected|http-body
(negative tests: a corrupted expected answer, or a corrupted HTTP body in a
traced run, must fail the run).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the two targets; False on failure."""
    env = dict(os.environ)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # compiler temporaries stay inside the checkout
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "xqbench",
                  "xqc_httpd", "-j", str(len(os.sched_getaffinity(0)))])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if r.returncode != 0:
            log("xqbench: build step failed: " + " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["xmark_xqjoin", "xmark_nljoin", "xmark_nooptim",
                             "xmark_noalgebra", "clio", "collection_scan"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--fault", choices=["expected", "http-body"])
    args = ap.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    if not build(build_dir):
        return 2

    cmd = [os.path.join(build_dir, "xqbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--httpd", os.path.join(build_dir, "xqc", "examples", "xqc_httpd"),
           "--work", os.path.join(build_dir, "runs")]
    if args.smoke:
        cmd.append("--smoke")
    if args.fault:
        cmd += ["--fault", args.fault]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("xqbench: run exceeded %d s and was killed" % RUN_TIMEOUT_S)
        return 3
    lines = [l for l in r.stdout.splitlines() if l.startswith("{")]
    if not lines:
        log("xqbench: driver printed no result (exit %d)" % r.returncode)
        return r.returncode or 4
    raw = json.loads(lines[-1])
    metrics = {}
    missing = []
    for m in wanted:
        if m["name"] in raw["metrics"]:
            metrics[m["name"]] = {"value": raw["metrics"][m["name"]],
                                  "unit": m["unit"]}
        else:
            missing.append(m["name"])
    correct = raw["correct"]
    if missing and correct:
        log("xqbench: metrics missing from the driver: " + ", ".join(missing))
        correct = False
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    if r.returncode == 0 and not correct:
        return 1
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
