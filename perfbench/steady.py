#!/usr/bin/env python3
"""Steadiness check of the benchmark (perfbench/run.py).

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10]
                                [--seconds S] [--sets 1|2] [--out FILE]

Runs every workload once per seed (untraced) and reports, for each
end-to-end metric, the spread of its values: the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median. A metric passes when its spread is within its bound in
BENCHMARK.json (setup_s is exempt) and, with --sets 2, when the second
set's median is not worse than the first's by more than the bound. Exits
non-zero when any metric fails or any run is incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if done.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(done.stderr[-3000:])
        return None
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf"), median


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--out", help="also write every value as JSON here")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    seeds = seed_list(args.seeds)
    metrics = spec["end_to_end"]

    values = {}  # (set, workload, metric) -> [values]
    ok = True
    for set_index in range(args.sets):
        for seed in seeds:
            for workload in workloads:
                result = run(workload, seed, args.seconds)
                if result is None:
                    print("FAIL: %s seed %d did not produce a correct result"
                          % (workload, seed))
                    ok = False
                    continue
                line = []
                for m in metrics:
                    value = result["metrics"][m["name"]]["value"]
                    values.setdefault((set_index, workload, m["name"]),
                                      []).append(value)
                    line.append("%s=%.5g" % (m["name"], value))
                print("set %d %-19s seed %2d %s" % (set_index + 1, workload,
                                                    seed, " ".join(line)),
                      flush=True)

    print()
    print("%-19s %-17s %5s %12s %8s %8s %s" % ("workload", "metric", "set",
                                              "median", "spread", "bound",
                                              "verdict"))
    for workload in workloads:
        for m in metrics:
            medians = []
            for set_index in range(args.sets):
                got = values.get((set_index, workload, m["name"]), [])
                if len(got) < 2:
                    continue
                s, median = spread(got)
                medians.append(median)
                exempt = m["name"] == "setup_s"
                passed = exempt or s <= m["bound"]
                ok = ok and passed
                verdict = "ok" if passed else "FAIL"
                if exempt:
                    verdict = "exempt"
                elif passed and s > m["bound"] / 3:
                    verdict = "ok (above a third of the bound)"
                print("%-19s %-17s %5d %12.5g %8.3f %8.3f %s"
                      % (workload, m["name"], set_index + 1, median, s,
                         m["bound"], verdict))
            if len(medians) == 2:
                first, second = medians
                worse = (second - first) / first if m["better"] == "lower" \
                    else (first - second) / first
                passed = worse <= m["bound"]
                ok = ok and passed
                print("%-19s %-17s %5s %12s %8.3f %8.3f %s"
                      % (workload, m["name"], "drift", "", worse, m["bound"],
                         "ok" if passed else "FAIL"))
    if args.out:
        with open(args.out, "w") as f:
            json.dump([{"set": k[0] + 1, "workload": k[1], "metric": k[2],
                        "values": v} for k, v in sorted(values.items())],
                      f, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
