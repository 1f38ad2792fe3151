#!/usr/bin/env python3
"""The bgckpt benchmark: one workload per invocation, in fresh processes.

    python3 perfbench/run.py --workload coio_shared_64k --seed 2011 \\
        --seconds 35 --trace 0

Builds perfbench/ (a CMake package over the library sources one directory
up) into .bench_build/perfbench, then runs the workload:

  --trace 0  one process times closed-loop rounds for --seconds and reports
             the end-to-end metrics of BENCHMARK.json: medians over rounds,
             plus peak RSS of that process.
  --trace 1  one untraced and one traced process run a single round each;
             reports the per-layer metrics. Host timings come from the
             untraced process, counts and attributed simulated seconds from
             the traced one, whose call spans go to .bench_build/spans/.

Human-readable lines go first; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. failed/attempted is the
benchmark's failed_frac. Exits nonzero, without that line, when the build
fails; exits nonzero after it when an output check failed.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
BINARY = os.path.join(BUILD, "bgckpt_perfbench")
WORKLOADS = ("coio_shared_64k", "independent_64k", "host_roundtrip")
DEADLINE_S = 175  # every run ends within 180 s once the build is done


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bgckpt_perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("benchmark build failed: " + " ".join(cmd))


def run_driver(args, deadline):
    """Run the driver once; returns (its JSON report, its exit code)."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("benchmark driver exceeded %.0f s: %s" % (timeout, args))
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, ValueError):
        sys.exit("benchmark driver printed no report (exit %d)"
                 % proc.returncode)


def timing_line(name, values):
    """Median and sample count; with 11+ samples also the highest
    percentile that has at least ten samples above it."""
    line = "%-12s median %.6f s  n=%d" % (name, statistics.median(values),
                                          len(values))
    n = len(values)
    if n >= 11:
        pct = math.floor(100 * (n - 10) / n)
        line += "  p%d %.6f s" % (pct, sorted(values)[n - 11])
    return line


def end_to_end(spec, rep):
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        if name == "peak_rss_mb":
            value = rep["peak_rss_mb"]
        else:
            samples = rep["samples"][name]
            log(timing_line(name, samples))
            value = statistics.median(samples)
        metrics[name] = {"value": value, "unit": m["unit"]}
    log("%-12s %.3f MB" % ("peak_rss_mb", rep["peak_rss_mb"]))
    return metrics


def per_layer(spec, untraced, traced):
    with open(os.path.join(HERE, "layers.json")) as f:
        targets = json.load(f)["targets"]
    values = dict(traced["layers"])
    values.update(untraced["host_layers"])
    values["obs.trace_overhead_frac"] = traced["call_s"] / untraced["call_s"] - 1
    # The model's counts must not depend on whether tracing is attached.
    drift = ["%s: untraced %r vs traced %r" % (k, v, traced["layers"][k])
             for k, v in untraced["layers"].items()
             if k in traced["layers"] and v != traced["layers"][k]]
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name not in targets:
            sys.exit("perfbench/layers.json has no target for " + name)
        value = values.get(name, 0.0)
        metrics[name] = {"value": value, "unit": m["unit"]}
        t = targets[name]
        aim = ("-> %s on %s" % ("/".join(t["moves"]), ", ".join(t["on"]))
               if t["moves"] else "(sentinel)")
        log("%-30s %.6g %s  %s" % (name, value, m["unit"], aim))
    return metrics, drift


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2011)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opt = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    deadline = time.monotonic() + DEADLINE_S
    scratch = os.path.join(OUT, "run-%d" % os.getpid())
    common = ["--workload", opt.workload, "--seed", str(opt.seed),
              "--scratch", scratch]
    try:
        if opt.trace == 0:
            rep, code = run_driver(
                common + ["--mode", "time", "--seconds", str(opt.seconds)],
                deadline)
            reports = [rep]
        else:
            spans = os.path.join(OUT, "spans",
                                 "%s-seed%d.json" % (opt.workload, opt.seed))
            os.makedirs(os.path.dirname(spans), exist_ok=True)
            untraced, code1 = run_driver(common + ["--mode", "untraced"],
                                         deadline)
            traced, code2 = run_driver(
                common + ["--mode", "traced", "--spans", spans], deadline)
            reports = [untraced, traced]
            code = code1 or code2
            log("spans: " + spans)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    first = reports[0]
    log("workload %s  seed %d  build %s  simcheck %s  rounds %d"
        % (opt.workload, opt.seed, first["build_type"], first["simcheck"],
           first["rounds"]))
    mismatches = [m for r in reports for m in r["mismatches"]]
    if opt.trace == 0:
        metrics = end_to_end(spec, first)
    else:
        metrics, drift = per_layer(spec, *reports)
        mismatches += drift
    for m in mismatches:
        log("cross-check failed: " + m)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    log("failed_frac  %.6f (%d of %d operations)"
        % (failed / attempted, failed, attempted))
    correct = failed == 0 and not mismatches and code == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
