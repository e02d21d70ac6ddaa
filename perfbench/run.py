#!/usr/bin/env python3
"""End-to-end benchmark of the UniZK CPU prover and its proving service.

    python3 perfbench/run.py --workload plonky2-factorial --seed 1 \
        --seconds 40 --trace 0

Run from the repository root. Builds perfbench/ (and with it the
repository's src/ libraries) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload:

  plonky2-factorial  one full-security Plonky2 Factorial proof (2^13 x 135)
  rollup-aggregate   Starky Factorial/Fibonacci/SHA-256 base proofs plus
                     one Plonky2 Recursion aggregation proof
  service-zipfian    a 2-lane proving daemon under the zipfian-closed
                     schedule from 4 connections

--trace 0 prints the end-to-end metrics (obs disabled); --trace 1 prints
the per-layer metrics and writes the driver's spans to
<build>/spans/<workload>-seed<N>.json. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Build and daemon
logs go to stderr. See perfbench/README.md.
"""

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("plonky2-factorial", "rollup-aggregate", "service-zipfian")
# Cold set-ups per run; setup_s is their median. A proving run does
# part of them before and the rest after its proofs, so that they
# sample the host's load over the whole run.
SETUP_REPEATS = 15
STEP_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    pass


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then (re)build the driver; logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no UniZK sources (src/) next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "4",
                  "--target", "perfbench_driver"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench_driver")


def last_json(text, what):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise BenchError(what + " printed nothing")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise BenchError("%s: bad result line: %s" % (what, e))


def run_driver(driver, args, what):
    done = subprocess.run([driver] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=STEP_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError("%s exited with %d" % (what, done.returncode))
    return last_json(done.stdout, what)


class Daemon:
    """The service-zipfian daemon: ready when it prints "ready"; it
    drains and exits when its stdin closes."""

    def __init__(self, driver, socket, trace):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [driver, "--mode", "serve", "--socket", socket,
             "--trace", str(trace)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=sys.stderr, text=True)
        line = "info"
        with self.watchdog():
            while line.startswith("info"):
                line = self.proc.stdout.readline()
        if line.strip() != "ready":
            self.kill()
            raise BenchError("daemon did not become ready")
        self.ready_s = time.perf_counter() - start

    @contextlib.contextmanager
    def watchdog(self):
        timer = threading.Timer(STEP_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            yield
        finally:
            timer.cancel()

    def stop(self):
        self.proc.stdin.close()
        with self.watchdog():
            out = self.proc.stdout.read()
        self.proc.wait()
        if self.proc.returncode != 0:
            raise BenchError("daemon exited with %d" % self.proc.returncode)
        return last_json(out, "daemon")

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def common_args(args, spans):
    return ["--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--spans", spans]


def cold_setups(driver, workload, count):
    return [run_driver(driver, ["--mode", "setup", "--workload", workload],
                       "setup")["setup_s"] for _ in range(count)]


def run_proving(driver, args, spans, socket):
    before = 0 if args.trace else SETUP_REPEATS // 2
    after = 0 if args.trace else SETUP_REPEATS - before
    # One more set-up first, not counted: the first process after an idle
    # spell often takes 2-5 times as long (host-side, not the program's).
    cold_setups(driver, args.workload, 0 if args.trace else 1)
    setups = cold_setups(driver, args.workload, before)
    result = run_driver(
        driver, ["--mode", "prove", "--workload", args.workload,
                 "--socket", socket] + common_args(args, spans), "prove")
    setups += cold_setups(driver, args.workload, after)
    if not args.trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setups), "unit": "s"}
    return result


def run_service(driver, args, spans, socket):
    # setup_s: daemon start until ready, warm-up included, median of
    # several starts; the last daemon serves the measured load.
    starts = 1 if args.trace else SETUP_REPEATS
    setups = []
    daemon = None
    try:
        for i in range(starts):
            daemon = Daemon(driver, socket, args.trace)
            setups.append(daemon.ready_s)
            if i + 1 < starts:
                daemon.stop()
                daemon = None
        result = run_driver(
            driver, ["--mode", "load", "--socket", socket]
            + common_args(args, spans), "load")
        final = daemon.stop()
        daemon = None
    finally:
        if daemon is not None:
            daemon.kill()
    if not args.trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setups), "unit": "s"}
        result["metrics"]["peak_rss_mb"] = {
            "value": final["peak_rss_mb"], "unit": "MB"}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        bdir = build_dir()
        driver = build(bdir)
        os.makedirs(os.path.join(bdir, "spans"), exist_ok=True)
        spans = os.path.join(bdir, "spans", "%s-seed%d.json"
                             % (args.workload, args.seed))
        # AF_UNIX paths are short; keep the socket relative to the root.
        socket = os.path.relpath(
            os.path.join(bdir, "pb-%d.sock" % os.getpid()), ROOT)
        if args.workload == "service-zipfian":
            result = run_service(driver, args, spans, socket)
        else:
            result = run_proving(driver, args, spans, socket)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
