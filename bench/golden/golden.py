#!/usr/bin/env python3
"""Record or check the paper suite's golden outputs.

    python3 bench/golden/golden.py --record --threads=4 --build build
    python3 bench/golden/golden.py --check --threads=4 --build build

Runs every paper bench with --threads=N and --perf-json, plus the examples
(the four simulated ones and the two that write real files). Every host
timing goes to stderr, so each program's stdout is deterministic. For each
it keeps, next to this script:

  <name>.stdout  the program's stdout, byte for byte
  <name>.events  one "<events>\\t<label>" line per simulated run of the
                 --perf-json record (benches only; examples have none)

--record overwrites those files. --check re-runs everything, prints the
first line that differs in each differing file and exits 1; a program that
exits nonzero (a failed SHAPE CHECK) also fails the check. Either mode
needs the bench/ and examples/ binaries of one build tree.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))

BENCHES = (
    "fig5_write_bandwidth", "fig6_checkpoint_time", "fig7_ckpt_compute_ratio",
    "fig8_rbio_nf_sweep", "fig9_dist_1pfpp", "fig10_dist_coio",
    "fig11_dist_rbio", "fig12_write_activity", "table1_perceived_bw",
    "eq1_production_improvement", "eq27_speedup_model",
    "eq7_measured_vs_model", "mesh_read_time", "ablation_pvfs",
    "ablation_romio_knobs", "ablation_1pfpp_dirs", "production_campaign",
    "extension_multilevel", "extension_131k_forecast",
    "extension_optimal_cadence", "extension_strong_scaling", "nekcem_scaling",
)
EXAMPLES = ("intrepid_campaign", "tuning_advisor", "darshan_report",
            "restart_reader", "quickstart", "waveguide_checkpoint")


def run(build, name, threads, workdir):
    """Run one program; returns (stdout, events text or None, exit code)."""
    if name in EXAMPLES:
        cmd = [os.path.join(build, "examples", name)]
        perf = None
    else:
        perf = os.path.join(workdir, name + ".perf.json")
        cmd = [os.path.join(build, "bench", name), "--threads=%d" % threads,
               "--perf-json", perf]
    # restart_reader and quickstart print paths in the temporary directory:
    # pin it so the output does not depend on $TMPDIR.
    env = dict(os.environ, TMPDIR="/tmp")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, cwd=workdir, env=env)
    events = None
    if perf is not None and proc.returncode == 0:
        with open(perf) as f:
            runs = json.load(f)["runs"]
        events = "".join("%d\t%s\n" % (r["events"], r["label"]) for r in runs)
    return proc.stdout.decode(), events, proc.returncode


def first_difference(path, got):
    """The first differing line of `got` against the golden file, or None."""
    try:
        with open(path) as f:
            want = f.read()
    except FileNotFoundError:
        return "%s: no golden recorded" % path
    if want == got:
        return None
    want_lines, got_lines = want.splitlines(), got.splitlines()
    for i in range(max(len(want_lines), len(got_lines))):
        w = want_lines[i] if i < len(want_lines) else "<end of file>"
        g = got_lines[i] if i < len(got_lines) else "<end of output>"
        if w != g:
            return "%s:%d:\n  golden: %s\n  now:    %s" % (
                os.path.relpath(path), i + 1, w, g)
    return "%s: line endings differ" % os.path.relpath(path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true")
    mode.add_argument("--check", action="store_true")
    ap.add_argument("--build", default="build",
                    help="build tree holding bench/ and examples/")
    ap.add_argument("--threads", type=int, default=4)
    args = ap.parse_args()
    # Programs run in a scratch directory, so a relative --build would
    # resolve against it.
    args.build = os.path.abspath(args.build)
    for sub in ("bench", "examples"):
        if not os.path.isdir(os.path.join(args.build, sub)):
            ap.error("%s has no %s/ directory; build the benches and "
                     "examples first" % (args.build, sub))
    names = BENCHES + EXAMPLES

    failures = 0
    with tempfile.TemporaryDirectory(prefix="bgckpt_golden_") as workdir:
        for name in names:
            start = time.monotonic()
            stdout, events, code = run(args.build, name, args.threads, workdir)
            outputs = [(name + ".stdout", stdout)]
            if events is not None:
                outputs.append((name + ".events", events))
            problems = []
            if code != 0:
                problems.append("%s exited %d" % (name, code))
            for file, text in outputs:
                path = os.path.join(HERE, file)
                if args.record:
                    if code == 0:
                        with open(path, "w") as f:
                            f.write(text)
                else:
                    diff = first_difference(path, text)
                    if diff:
                        problems.append(diff)
            status = "FAIL" if problems else ("recorded" if args.record
                                              else "ok")
            print("%-28s %-8s %6.1f s" % (name, status,
                                         time.monotonic() - start),
                  flush=True)
            for p in problems:
                print("  " + p.replace("\n", "\n  "), flush=True)
            failures += bool(problems)
    if failures:
        print("%d of %d programs differ from their goldens or failed"
              % (failures, len(names)))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
