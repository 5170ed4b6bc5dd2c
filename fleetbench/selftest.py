#!/usr/bin/env python3
"""Tiny-size self-test of fleetbench: schema, checks, determinism, failure.

Run from the root of a checkout (about a minute after the first build):

    python3 fleetbench/selftest.py

It runs every workload through run.py at the tiny size (--tiny: one cold
build of a small corpus, 2000 streams, 1 s) and checks:
  * the last stdout line has exactly the keys correct/attempted/failed/
    metrics, with every declared metric, its unit and a finite value;
  * the run is correct and drops nothing;
  * the digest, alarm_f1 and heldout_f1 agree between SMART2_THREADS=1
    and 2, and the digest changes with the seed;
  * run.py's checks catch a wrong expected value;
  * in a directory holding only BENCHMARK.json and fleetbench/, run.py
    exits non-zero without printing a result.
It exits non-zero on the first failed check.
"""

import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # leave nothing behind in the checkout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--tiny", "--seconds", "1"]


def load_run_module():
    spec = importlib.util.spec_from_file_location(
        "fleetbench_run", os.path.join(HERE, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = load_run_module()


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def run(workload, seed, trace, threads="2", cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", str(trace),
           "--threads", threads] + TINY
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600,
                          check=False)
    return proc


def parse(proc, what):
    if proc.returncode != 0:
        fail("%s exited %d: %s" % (what, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    checks = json.loads(lines[-3])
    return result, checks


def check_schema(result, trace, what):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (what, sorted(result)))
    declared = RUN.PER_LAYER if trace else RUN.END_TO_END
    if set(result["metrics"]) != set(declared):
        fail("%s: metrics %s" % (what, sorted(result["metrics"])))
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or m["unit"] != declared[name]:
            fail("%s: metric %s is %s" % (what, name, m))
        if not isinstance(m["value"], (int, float)) or \
                not math.isfinite(m["value"]):
            fail("%s: metric %s not finite" % (what, name))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s: attempted %r" % (what, result["attempted"]))
    if result["failed"] != 0:
        fail("%s: %d windows dropped" % (what, result["failed"]))
    if result["correct"] is not True:
        fail("%s: not correct" % what)


def main():
    for workload in RUN.WORKLOADS:
        for trace in (0, 1):
            what = "%s trace=%d" % (workload, trace)
            result, _ = parse(run(workload, 7, trace), what)
            check_schema(result, trace, what)
        _, two = parse(run(workload, 7, 0, threads="2"), workload + " x2")
        _, one = parse(run(workload, 7, 0, threads="1"), workload + " x1")
        for key in ("digest", "alarm_f1", "heldout_f1"):
            if one[key] != two[key]:
                fail("%s: %s differs between 1 and 2 lanes" % (workload, key))
        _, other = parse(run(workload, 8, 0), workload + " seed 8")
        if other["digest"] == two["digest"]:
            fail("%s: the digest does not depend on the seed" % workload)
        print("selftest: %s ok (digest %s)" % (workload, two["digest"]))

    # The recorded expectations are enforced: a wrong one fails the run.
    result = {"checks": {}, "attempted": 1, "digest": "0" * 16,
              "end_to_end": {name: 1.0 for name in RUN.END_TO_END}}

    class Args:
        workload = "fleet_steady"
        seed = 1
        trace = 0
        tiny = False

    wrong = {"fleet_steady": {"heldout_f1": 0.5, "alarm_f1_min": 2.0,
                              "seeds": {"1": {"digest": "f" * 16,
                                              "alarm_f1": 0.5}}}}
    failed = [n for n, ok in RUN.check(result, Args, wrong) if not ok]
    if set(failed) != {"heldout_f1_expected", "alarm_f1_floor",
                       "digest_expected", "alarm_f1_expected"}:
        fail("expectation checks did not fire: %s" % failed)

    # Without the sources next to it the benchmark must fail cleanly.
    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "fleetbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, "fleetbench/run.py", "--workload", "fleet_steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("a directory without the sources did not fail cleanly")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
