#!/usr/bin/env python3
"""Sensitivity self-test of the benchmark (perfbench/run.py).

    python3 perfbench/selftest.py [--spin-us U] [--seconds S] [--pairs N]
                                  [--steady]

A fixed busy spin of U microseconds inside the onboard workload's own
Assess decorator must
  1. appear in the traced run's core.service.assess_ns (by U, within
     25%);
  2. raise the onboard p50_us by about U times the identifications a
     device's completing call runs up to its own, itself included
     (gateway.assess_per_completion of the traced run: one FlushIdle
     can end several devices' setup) — median over N alternating pairs
     of runs, within 40%;
  3. leave the identification workloads unchanged: the spin option must
     not reach them, so their median p50_us over N alternating pairs
     with and without it stays within the metric's bound.
With --steady it then runs perfbench/steady.py on the untouched tree
(every workload, seeds 1-10), which must pass too. Exits non-zero on any
failure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace=0, spin_us=0.0):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    if spin_us:
        command += ["--assess-spin-us", str(spin_us)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-3000:])
        raise RuntimeError("%s failed" % " ".join(command))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def results_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench", "results")


def check(ok, message):
    print(("PASS " if ok else "FAIL ") + message, flush=True)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spin-us", type=float, default=100.0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--steady", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    spin = args.spin_us
    ok = True

    # 1. The traced run puts the time in core.service.assess_ns.
    base = run("onboard", 100, args.seconds, trace=1)
    slow = run("onboard", 100, args.seconds, trace=1, spin_us=spin)
    moved = (slow["core.service.assess_ns"] - base["core.service.assess_ns"])
    ok &= check(abs(moved / 1e3 - spin) <= 0.25 * spin,
                "core.service.assess_ns rose by %.1f us" % (moved / 1e3))
    with open(os.path.join(results_dir(), "onboard-seed100-trace1.json")) as f:
        waited = json.load(f)["metrics"]["gateway.assess_per_completion"][
            "value"]

    # 2. End to end: alternate which side runs first.
    deltas = []
    for pair in range(args.pairs):
        seed = 100 + pair
        sides = [0.0, spin] if pair % 2 == 0 else [spin, 0.0]
        got = {s: run("onboard", seed, args.seconds, spin_us=s)["p50_us"]
               for s in sides}
        deltas.append(got[spin] - got[0.0])
        print("pair %d: p50_us %.1f without, %.1f with the spin"
              % (pair + 1, got[0.0], got[spin]), flush=True)
    delta = statistics.median(deltas)
    expected = spin * waited
    ok &= check(abs(delta - expected) <= 0.4 * expected,
                "onboard p50_us rose by %.1f us for a %.0f us spin (expected "
                "%.1f: %.2f identifications per completing call)"
                % (delta, spin, expected, waited))

    # 3. The identification workloads do not see the spin: medians over
    # alternating pairs agree within the bound.
    for workload in ("identify_paced", "identify_saturated"):
        got = {0.0: [], spin: []}
        for pair in range(args.pairs):
            sides = [0.0, spin] if pair % 2 == 0 else [spin, 0.0]
            for s in sides:
                got[s].append(run(workload, 100 + pair, args.seconds,
                                  spin_us=s)["p50_us"])
        plain = statistics.median(got[0.0])
        spun = statistics.median(got[spin])
        change = abs(spun - plain) / plain
        ok &= check(change <= bounds["p50_us"],
                    "%s p50_us %.1f vs %.1f us with the option (%.1f%%, "
                    "bound %.0f%%)" % (workload, plain, spun, 100 * change,
                                       100 * bounds["p50_us"]))

    if args.steady:
        done = subprocess.run([sys.executable, os.path.join(HERE, "steady.py")],
                              cwd=ROOT)
        ok &= check(done.returncode == 0, "untouched tree is steady")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
