#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload solve_sparse|daemon_repeat|daemon_mix \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds perfbench/
(CMake, Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset, then runs the benchmark binary, whose last
line of output is the JSON result. Exits with the binary's status, or
nonzero when the build fails or the run exceeds its time limit.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("solve_sparse", "daemon_repeat", "daemon_mix")
RUN_LIMIT_S = 170


def source_digest():
    """sha256 over every file the benchmark builds from, in path order."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "tools", "redist_cli.cpp")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def build(build_dir):
    """Configure (once) and build; build output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench", "redist_cli"])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources under src/ in " + ROOT,
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    work_dir = os.path.join(ROOT, target, "perfbench-run")
    os.makedirs(work_dir, exist_ok=True)
    if not build(build_dir):
        return 2

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--cli", os.path.join(build_dir, "redist_cli"),
           "--work-dir", work_dir,
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    sys.stdout.flush()
    # Own session, so a timeout can stop the benchmark and its daemon.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_LIMIT_S, file=sys.stderr)
        return 3
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the whole group already exited
        proc.wait()


if __name__ == "__main__":
    sys.exit(main())
