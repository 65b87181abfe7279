#!/usr/bin/env python3
"""Build and run the end-to-end serving benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload imagenet_local --seed 1 \
        --seconds 36 --trace 0

The first call configures and builds perfbench/CMakeLists.txt (the
tamres library plus perfbench/harness.cc) into .bench_build/; later
calls only re-run the incremental build. The harness prints progress,
a host line and, as its last line, one JSON result object; this
wrapper passes its output and exit code through unchanged. Artifacts
(span files, result copies with the host block) land in
.bench_build/out/.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

_child = None  # the subprocess currently running, stopped on a signal


def run(cmd, timeout, **kwargs):
    """Run cmd to completion; return its exit code, or None on timeout."""
    global _child
    _child = subprocess.Popen(cmd, **kwargs)
    try:
        return _child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        _child.kill()
        _child.wait()
        return None
    finally:
        _child = None


def stop(signum, _frame):
    if _child is not None:
        _child.kill()
        _child.wait()
    sys.exit(128 + signum)


def jobs():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build():
    """Configure (once) and build; True on success."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            return False
    return run(["cmake", "--build", BUILD, "-j", str(jobs())],
               BUILD_TIMEOUT_S, stdout=sys.stderr) == 0


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)

    try:
        built = build()
    except OSError as e:
        print(f"perfbench: cannot build: {e}", file=sys.stderr)
        built = False
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    code = run(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env)
    if code is None:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
