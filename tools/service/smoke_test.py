#!/usr/bin/env python3
"""End-to-end smoke test for the unizkd proving service.

Three legs:

  1. Steady state: start unizkd, drive unizk_client through a small
     mixed Plonky2/Starky workload over 4 concurrent connections with
     --check (proofs byte-compared against the in-process pipeline),
     then SIGTERM the daemon and assert a graceful drain: exit code 0,
     socket file unlinked, and a valid unizk-stats-v2 document whose
     histograms carry one service.request_latency_ns sample per
     completed request.

  2. No stats: a daemon without --stats-json, which then keeps no
     per-request run stats (test_service pins that part), still serves
     checked proofs and drains cleanly on SIGTERM.

  3. Overload: a third daemon with --queue-capacity 0 rejects every
     request with the typed queue-full error (client reports them as
     backpressure, not failures), then shuts down cleanly via the
     protocol Shutdown frame.

Registered as the `service_smoke` ctest; also run by CI's
service-smoke job. Stdlib-only by design.

Usage:
    python3 tools/service/smoke_test.py /path/to/unizkd /path/to/unizk_client
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "obs"),
)

import validate_obs_json  # noqa: E402

SUMMARY_RE = re.compile(
    r"unizk_client: ok=(\d+) queue_full=(\d+) shutting_down=(\d+) "
    r"errors=(\d+) mismatches=(\d+)"
)


def wait_for_socket(path: str, daemon: subprocess.Popen) -> None:
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if os.path.exists(path):
            return
        if daemon.poll() is not None:
            raise SystemExit(
                f"unizkd exited early with {daemon.returncode}")
        time.sleep(0.05)
    raise SystemExit(f"unizkd never created {path}")


def run_client(client: str, args: list) -> dict:
    proc = subprocess.run(
        [client] + args,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=600,
    )
    print(proc.stdout, end="")
    if proc.returncode != 0:
        raise SystemExit(
            f"unizk_client {' '.join(args)} exited with {proc.returncode}"
        )
    match = SUMMARY_RE.search(proc.stdout)
    if not match:
        raise SystemExit("unizk_client printed no summary line")
    keys = ("ok", "queue_full", "shutting_down", "errors", "mismatches")
    return dict(zip(keys, (int(g) for g in match.groups())))


def stop_daemon(daemon: subprocess.Popen, sock: str, how: str) -> None:
    try:
        out, _ = daemon.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        daemon.kill()
        raise SystemExit(f"unizkd did not drain after {how}")
    print(out, end="")
    if daemon.returncode != 0:
        raise SystemExit(
            f"unizkd exited with {daemon.returncode} after {how}")
    if os.path.exists(sock):
        raise SystemExit(f"unizkd leaked its socket file {sock}")


def steady_state_leg(unizkd: str, client: str, workdir: str) -> None:
    sock = os.path.join(workdir, "unizkd.sock")
    stats_path = os.path.join(workdir, "service-stats.json")
    daemon = subprocess.Popen(
        [unizkd, "--socket", sock, "--queue-capacity", "8",
         "--lanes", "2", "--threads", "2", "--stats-json", stats_path],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        wait_for_socket(sock, daemon)
        tally = run_client(
            client,
            ["--socket", sock, "--connections", "4", "--requests", "3",
             "--check", "--threads", "2"],
        )
        if tally["ok"] != 12 or tally["errors"] or tally["mismatches"]:
            raise SystemExit(f"steady state: bad tally {tally}")
        daemon.send_signal(signal.SIGTERM)
        stop_daemon(daemon, sock, "SIGTERM")
    finally:
        if daemon.poll() is None:
            daemon.kill()

    errors = validate_obs_json.validate_file(stats_path, "stats")
    if errors:
        raise SystemExit("\n".join(errors))
    with open(stats_path, "r", encoding="utf-8") as f:
        stats = json.load(f)
    if stats["schema"] != "unizk-stats-v2":
        raise SystemExit(f"schema is {stats['schema']!r}, expected v2")
    if len(stats["runs"]) != 12:
        raise SystemExit(f"expected 12 runs, got {len(stats['runs'])}")
    protocols = {run["protocol"] for run in stats["runs"]}
    if protocols != {"plonky2", "starky"}:
        raise SystemExit(f"expected a mixed workload, got {protocols}")
    latency = stats["histograms"].get("service.request_latency_ns")
    if not latency or latency["count"] != 12:
        raise SystemExit(
            f"bad service.request_latency_ns histogram: {latency}")
    completed = stats["counters"].get("service.requests_completed")
    if completed != 12:
        raise SystemExit(
            f"service.requests_completed is {completed}, expected 12")
    print("service_smoke: steady-state leg OK")


def no_stats_leg(unizkd: str, client: str, workdir: str) -> None:
    sock = os.path.join(workdir, "unizkd-nostats.sock")
    daemon = subprocess.Popen(
        [unizkd, "--socket", sock, "--lanes", "1", "--threads", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        wait_for_socket(sock, daemon)
        tally = run_client(
            client,
            ["--socket", sock, "--connections", "1", "--requests", "2",
             "--check", "--threads", "2"],
        )
        if tally["ok"] != 2 or tally["errors"] or tally["mismatches"]:
            raise SystemExit(f"no stats: bad tally {tally}")
        daemon.send_signal(signal.SIGTERM)
        stop_daemon(daemon, sock, "SIGTERM")
    finally:
        if daemon.poll() is None:
            daemon.kill()
    print("service_smoke: no-stats leg OK")


def overload_leg(unizkd: str, client: str, workdir: str) -> None:
    sock = os.path.join(workdir, "unizkd-overload.sock")
    daemon = subprocess.Popen(
        [unizkd, "--socket", sock, "--queue-capacity", "0",
         "--lanes", "1", "--threads", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        wait_for_socket(sock, daemon)
        tally = run_client(
            client,
            ["--socket", sock, "--connections", "4", "--requests", "2",
             "--threads", "2"],
        )
        if tally["queue_full"] != 8 or tally["ok"] or tally["errors"]:
            raise SystemExit(f"overload: bad tally {tally}")
        # Shut down over the protocol instead of a signal this time.
        run_client(
            client,
            ["--socket", sock, "--connections", "0", "--requests", "0",
             "--shutdown", "--threads", "2"],
        )
        stop_daemon(daemon, sock, "protocol shutdown")
    finally:
        if daemon.poll() is None:
            daemon.kill()
    print("service_smoke: overload leg OK")


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    unizkd, client = argv
    with tempfile.TemporaryDirectory() as workdir:
        steady_state_leg(unizkd, client, workdir)
        no_stats_leg(unizkd, client, workdir)
        overload_leg(unizkd, client, workdir)
    print("service_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
