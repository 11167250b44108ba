#!/usr/bin/env python3
"""End-to-end benchmark of IoT Sentinel: one command per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the
benchmark (perfbench/CMakeLists.txt, Release) under .bench_build/; later
runs rebuild incrementally. The workloads, their metrics and the output
checks are described in perfbench/README.md.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: with --trace 0 every end-to-end metric of
BENCHMARK.json, with --trace 1 every per-layer metric. The run exits
non-zero when an output check fails (a verdict differs from the
in-process oracle, or the verdict digest differs from the one recorded
in perfbench/digests.json for this workload and seed).
"""

import argparse
import hashlib
import http.client
import json
import os
import platform
import select
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("onboard", "identify_paced", "identify_saturated")
SETUP_REPEATS = 5
SERVER_START_TIMEOUT_S = 60.0
TABLE_NOTES = {
    "net.parse_ns": "moves throughput_per_s (onboard)",
    "features.fingerprint_ns": "moves p50_us (onboard)",
    "core.identifier.identify_ns.single": "moves p50_us, throughput_per_s",
    "core.identifier.identify_ns.multi": "moves p90_us (multi-match tail)",
    "core.identifier.multi_match_share": "moves p90_us",
    "core.identifier.edit_distances": "moves p90_us",
    "core.identifier.unknown_share": "moves p90_us",
    "core.service.assess_ns": "moves p50_us (onboard)",
    "quality.accuracy": "none (reported, not checked)",
    "trace.overhead_share": "none (validity)",
    "trace.coverage": "none (validity)",
    "gateway.ingress_ns.collecting": "moves throughput_per_s (onboard)",
    "gateway.ingress_ns.enforced": "moves throughput_per_s, p50_us (onboard)",
    "gateway.complete_ns": "moves p50_us, p90_us (onboard)",
    "gateway.assess_per_completion": "scales how far an Assess change moves "
                                     "p50_us (onboard)",
    "core.service.assess_share": "moves p50_us (onboard)",
    "core.enforcement.authorize_ns": "moves throughput_per_s (onboard)",
    "core.enforcement.rules": "moves rss_peak_mb (onboard)",
    "sdn.match_ns": "moves throughput_per_s (onboard)",
    "sdn.hit_share": "moves throughput_per_s (onboard)",
    "sdn.packet_in_share": "moves throughput_per_s (onboard)",
    "sdn.flow_rules": "moves rss_peak_mb (onboard)",
    "core.serve.queue_wait_us.p50": "moves p50_us (identify_paced)",
    "core.serve.queue_wait_us.p99": "moves p90_us (identify_paced)",
    "core.serve.batch_size.mean": "moves throughput_per_s (identify_saturated)",
    "core.serve.batch_size.p99": "moves p50_us (identify_saturated)",
    "obs.http.healthz_rtt_us": "moves p50_us (identify_paced)",
    "obs.http.self_us": "moves p50_us (identify_paced)",
    "server.cpu_util": "moves throughput_per_s (identify_saturated)",
    "server.threads": "moves cpu_us_per_op",
    "core.serve.admitted_share": "moves served_share",
    "core.serve.served_of_admitted": "moves served_share",
    "gen.late_us.p99": "validity of identify_paced",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark and sentinelctl."""
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                     os.path.join("tools", "sentinelctl.cpp")):
        if not os.path.exists(os.path.join(ROOT, required)):
            raise RuntimeError(
                "no IoT Sentinel source tree next to perfbench/ (missing %s)"
                % required)
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench_onboard", "perfbench_identify", "sentinelctl"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(step))
    return {
        "onboard": os.path.join(out, "perfbench_onboard"),
        "identify": os.path.join(out, "perfbench_identify"),
        "sentinelctl": os.path.join(out, "sentinel", "tools", "sentinelctl"),
        "cache": os.path.join(out, "CMakeCache.txt"),
    }


def provenance(paths, args):
    """Environment of the run: cores, build, compiler, commit, seed."""
    cache = {}
    with open(paths["cache"]) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    commit = "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "compiler": version,
        "commit": commit,
        "source_sha256": source_digest(),
    }


def source_digest():
    """Digest of the sources built, which identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def last_json_line(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise RuntimeError("driver printed no result")


def run_driver(command, timeout):
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError("%s exited with %d" % (os.path.basename(command[0]),
                                                  done.returncode))
    return last_json_line(done.stdout)


class Server:
    """One `sentinelctl serve` process, started with no flags."""

    def __init__(self, binary, workdir):
        self.started = time.monotonic()
        self.proc = subprocess.Popen([binary, "serve"], cwd=workdir,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL)
        self.port = None
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - self.started

    def _wait_ready(self):
        deadline = self.started + SERVER_START_TIMEOUT_S
        banner = b""
        marker = b"serving telemetry on http://127.0.0.1:"
        while marker not in banner or not banner.split(marker, 1)[1].count(
                b"\n"):
            left = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(left, 0))
            chunk = os.read(self.proc.stdout.fileno(), 4096) if ready else b""
            if not chunk:
                break
            banner += chunk
        if marker in banner:
            self.port = int(banner.split(marker, 1)[1].split(b"\n", 1)[0])
        if self.port is None:
            raise RuntimeError("sentinelctl serve did not start")
        while time.monotonic() < deadline:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                  timeout=5)
                conn.request("GET", "/healthz")
                status = conn.getresponse().status
                conn.close()
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("sentinelctl serve never answered /healthz")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def run_onboard(paths, args, trace_out):
    command = [paths["onboard"], "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", trace_out]
    if args.assess_spin_us:
        command += ["--assess-spin-us", str(args.assess_spin_us)]
    return run_driver(command, args.seconds + 120)


def run_identify(paths, args, trace_out):
    mode = args.workload.split("_", 1)[1]
    workdir = os.path.dirname(paths["cache"])
    setups = []
    server = None
    try:
        for _ in range(1 if args.trace else SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = Server(paths["sentinelctl"], workdir)
            setups.append(server.setup_s)
        command = [paths["identify"], "--port", str(server.port), "--pid",
                   str(server.proc.pid), "--mode", mode, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace",
                   str(args.trace)]
        if args.trace:
            command += ["--trace-out", trace_out]
        result = run_driver(command, args.seconds + 120)
    finally:
        if server is not None:
            server.stop()
    setups.sort()
    result["metrics"]["setup_s"] = {"value": setups[len(setups) // 2],
                                    "unit": "s"}
    return result


def check_digest(workload, seed, digest):
    """Compares with the digest recorded for this workload and seed, if
    any. Returns (ok, recorded)."""
    path = os.path.join(HERE, "digests.json")
    with open(path) as f:
        recorded = json.load(f)
    key = "onboard" if workload == "onboard" else "identify"
    want = recorded.get(key, {}).get(str(seed))
    return (want is None or want == digest), want


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Sensitivity self-test only (perfbench/selftest.py): a fixed spin in
    # the onboard workload's Assess decorator.
    parser.add_argument("--assess-spin-us", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    paths = build()
    env = provenance(paths, args)
    log("perfbench: " + json.dumps(env, sort_keys=True))
    results_dir = os.path.join(build_dir(), "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    trace_out = os.path.join(results_dir, "%s.spans.json" % args.workload)

    if args.workload == "onboard":
        result = run_onboard(paths, args, trace_out)
    else:
        result = run_identify(paths, args, trace_out)

    digest_ok, recorded = check_digest(args.workload, args.seed,
                                       result["digest"])
    correct = result["mismatch_count"] == 0 and digest_ok
    metrics = {}
    for spec_metric in wanted:
        got = result["metrics"].get(spec_metric["name"])
        if got is None or got["value"] is None:
            raise RuntimeError("metric %s was not measured" %
                               spec_metric["name"])
        metrics[spec_metric["name"]] = {"value": got["value"],
                                        "unit": spec_metric["unit"]}

    succeeded = result["attempted"] - result["failed"]
    log("perfbench: %s seed %d: attempted %d, succeeded %d, failed %d; "
        "verdicts checked %d, mismatches %d; digest %s (recorded: %s)%s"
        % (args.workload, args.seed, result["attempted"], succeeded,
           result["failed"], result["checked"], result["mismatch_count"],
           result["digest"], recorded or "none for this seed",
           "" if result["notes"].get("valid", "true") == "true"
           else "; INVALID: the generator fell behind"))
    for mismatch in result["mismatches"]:
        log("perfbench: MISMATCH " + mismatch)
    if not digest_ok:
        log("perfbench: MISMATCH verdict digest %s, recorded %s"
            % (result["digest"], recorded))
    if args.trace:
        log("perfbench: per-layer table (%s; spans in %s)"
            % (args.workload, trace_out))
        for name, got in result["metrics"].items():
            value = got["value"]
            shown = "missing" if value is None else "%.6g" % value
            log("  %-38s %14s %-6s %s" % (name, shown, got["unit"],
                                          TABLE_NOTES.get(name, "")))

    report = {"provenance": env, "correct": correct, "digest": result["digest"],
              "recorded_digest": recorded, "attempted": result["attempted"],
              "failed": result["failed"], "checked": result["checked"],
              "mismatches": result["mismatches"], "notes": result["notes"],
              "metrics": result["metrics"]}
    with open(os.path.join(results_dir, stem + ".json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    # A terminated run still stops its server (the finally blocks run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as error:
        log("perfbench: error: %s" % error)
        sys.exit(2)
