#!/usr/bin/env python3
"""End-to-end benchmark of qagview_server: one run of one workload.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run configures and builds the
repository (library and qagview_server) together with the benchmark's own
runner into $CARGO_TARGET_DIR, or .bench_build when that is unset; later
runs rebuild incrementally. A build directory configured from another
checkout's sources is left alone: this checkout then builds into a
subdirectory of it named after its own path. Each run then gets a fresh network namespace
(`unshare --net` with the loopback interface brought up), so no TIME_WAIT
socket of an earlier run is left in it; where namespaces are unavailable
it waits until the count in /proc/net/sockstat drains instead. The runner
(perfbench/runner.cc) does the rest and prints the result as the last line.
See perfbench/README.md for workloads and metrics.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import signal
import socket
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("explore", "drilldown", "ingest")
BUILD_TIMEOUT_S = 850
DRAIN_TIMEOUT_S = 30


def run_timeout_s(seconds):
    """A run measures one window (two when traced) of at most `seconds`,
    plus set-ups, checks and the layer probe, which take well under 80 s."""
    return 80 + 3 * seconds


def configured_from(out):
    """The source directory the CMake cache in `out` was configured from,
    or None when there is no cache."""
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        return None
    return ""


def build_dir():
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    source = configured_from(out)
    if source is None or os.path.realpath(source) == os.path.realpath(HERE):
        return out
    key = hashlib.sha256(os.path.realpath(HERE).encode()).hexdigest()[:16]
    return os.path.join(out, "src-" + key)


def build(out, targets):
    """Configures once, then builds `targets`; exits 1 on any failure."""
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if configured_from(out) is None:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                  "--target"] + targets)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(1, deadline - time.monotonic())
                                      ).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
            if code != 0:
                with open(log_path) as done:
                    sys.stderr.write(done.read()[-4000:])
                sys.stderr.write(f"build step failed ({code}): {' '.join(step)}\n")
                sys.exit(1)


def netns_available():
    try:
        return subprocess.run(["unshare", "--net", "true"],
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode == 0
    except OSError:
        return False


def loopback_up():
    """Brings `lo` up in this (new) network namespace: SIOCSIFFLAGS |= IFF_UP."""
    siocgifflags, siocsifflags, iff_up = 0x8913, 0x8914, 0x1
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
        request = struct.pack("16sH14s", b"lo", 0, bytes(14))
        flags = struct.unpack("16sH14s", fcntl.ioctl(s, siocgifflags, request))[1]
        fcntl.ioctl(s, siocsifflags,
                    struct.pack("16sH14s", b"lo", flags | iff_up, bytes(14)))


def time_wait_sockets():
    with open("/proc/net/sockstat") as f:
        for line in f:
            fields = line.split()
            if fields and fields[0] == "TCP:" and "tw" in fields:
                return int(fields[fields.index("tw") + 1])
    return 0


def wait_for_drain():
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    while time_wait_sockets() > 0 and time.monotonic() < deadline:
        time.sleep(0.5)


def run_isolated(command, timeout_s):
    """Runs `command` in its own process group, killing the whole group
    (the runner and its server) if it overruns; returns its exit code."""
    child = subprocess.Popen(command, start_new_session=True)
    try:
        return child.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.stderr.write(f"run exceeded {timeout_s} s\n")
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    parser.add_argument("--plant-wrong-answer", action="store_true",
                        help="corrupt one answer before the checks, which "
                             "must then report correct=false")
    # Internal: set on the re-invocation inside the new network namespace.
    parser.add_argument("--in-netns", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    out = build_dir()

    if args.selftest:
        build(out, ["perfbench_selftest"])
        scratch = os.path.join(out, "selftest")
        os.makedirs(scratch, exist_ok=True)
        return subprocess.run([os.path.join(out, "perfbench_selftest"),
                               scratch]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    runner = [os.path.join(out, "perfbench_runner"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--server", os.path.join(out, "qagview_server"),
              "--workdir", os.path.join(out, "work", args.workload)]
    if args.plant_wrong_answer:
        runner.append("--plant-wrong-answer")

    if args.in_netns:
        loopback_up()
        os.execv(runner[0], runner + ["--isolation", "netns"])

    build(out, ["perfbench_runner", "qagview_server"])
    os.makedirs(os.path.join(out, "work", args.workload), exist_ok=True)
    timeout_s = run_timeout_s(args.seconds)
    if netns_available():
        return run_isolated(["unshare", "--net", "--", sys.executable,
                             os.path.abspath(__file__), "--in-netns"]
                            + sys.argv[1:], timeout_s)
    wait_for_drain()
    return run_isolated(runner + ["--isolation", "shared"], timeout_s)


if __name__ == "__main__":
    sys.exit(main())
