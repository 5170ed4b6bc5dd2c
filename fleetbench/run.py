#!/usr/bin/env python3
"""Build and run the fleetbench benchmark; print one JSON result line.

Run from the root of a checkout:

    python3 fleetbench/run.py --workload fleet_steady --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds the repository's libraries and the
fleetbench driver under .bench_build/ (or $CARGO_TARGET_DIR when set).
Every run then executes one workload at SMART2_THREADS=2, checks its
outputs and prints, as the last line of stdout, a JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The host fingerprint, the
workload configuration, the checks and the verdict digest are printed on
the lines before it. README.md in this directory explains the metrics.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LANES = "2"
RUN_TIMEOUT_S = 170


def load_benchmark():
    """BENCHMARK.json at the checkout root declares the workloads and the
    metrics with their units; the driver reports every declared metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    workloads = tuple(w["name"] for w in bench["workloads"])
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    return workloads, end_to_end, per_layer


WORKLOADS, END_TO_END, PER_LAYER = load_benchmark()


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the fleetbench target; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no smart2 sources next to " + HERE)
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    build_env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, env=build_env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "fleetbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr, env=build_env)
    return os.path.join(build_dir, "fleetbench")


def load_expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as f:
        return json.load(f)


def check(result, args, expected):
    """Every correctness check of one run: (name, passed) pairs."""
    checks = list(result["checks"].items())
    e2e = result["end_to_end"]
    for name in END_TO_END:
        value = e2e.get(name)
        ok = isinstance(value, (int, float)) and math.isfinite(value) \
            and value > 0
        checks.append(("finite_" + name, ok))
    if args.trace:
        layer = result["per_layer"]
        checks.append(("per_layer_complete", all(
            isinstance(layer.get(name), (int, float)) and
            math.isfinite(layer[name]) for name in PER_LAYER)))
    checks.append(("attempted_positive", result["attempted"] > 0))
    # The recorded expectations hold at the workload's own size only.
    exp = expected.get(args.workload, {})
    if not args.tiny:
        if "heldout_f1" in exp:
            checks.append(("heldout_f1_expected",
                           abs(e2e["heldout_f1"] - exp["heldout_f1"]) < 1e-12))
        if "alarm_f1_min" in exp:
            checks.append(("alarm_f1_floor",
                           e2e["alarm_f1"] >= exp["alarm_f1_min"]))
        seed_exp = exp.get("seeds", {}).get(str(args.seed))
        if seed_exp is not None:
            checks.append(("digest_expected",
                           result["digest"] == seed_exp["digest"]))
            checks.append(("alarm_f1_expected",
                           abs(e2e["alarm_f1"] - seed_exp["alarm_f1"])
                           < 1e-12))
    return checks


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--threads", default=LANES,
                    help="SMART2_THREADS for the run (default 2)")
    ap.add_argument("--tiny", action="store_true",
                    help="the self-test's tiny size; skips the recorded "
                    "expectations")
    args = ap.parse_args()

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(base), "fleetbench")
    try:
        exe = build(build_dir)
        expected = load_expected()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        log("fleetbench: build failed: %s" % err)
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, SMART2_THREADS=str(args.threads))
    for knob in [k for k in env if k.startswith("SMART2_") and
                 k != "SMART2_THREADS"]:
        del env[knob]  # the workload, not the environment, sets the run
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              check=False, text=True)
    except subprocess.TimeoutExpired:
        log("fleetbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("fleetbench: driver exited with %d" % proc.returncode)
        return 1
    result = json.loads(lines[-1])

    checks = check(result, args, expected)
    failed_checks = [name for name, ok in checks if not ok]
    print(json.dumps({"host": result["host"]}))
    print(json.dumps({"config": result["config"]}))
    print(json.dumps({"checks": dict(checks), "digest": result["digest"],
                      "alarm_f1": result["end_to_end"]["alarm_f1"],
                      "heldout_f1": result["end_to_end"]["heldout_f1"]}))
    print(json.dumps({"info": result["info"]}))
    if failed_checks:
        log("fleetbench: failed checks: " + ", ".join(failed_checks))

    source, units = ((result["per_layer"], PER_LAYER) if args.trace
                     else (result["end_to_end"], END_TO_END))
    metrics = {name: {"value": source.get(name), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({
        "correct": not failed_checks,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
