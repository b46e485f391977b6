#!/usr/bin/env python3
"""Build and run one workload of the sccpipe benchmark.

    python3 sccbench/run.py --workload figure_grid --seed 1 --seconds 25 --trace 0

Builds the sccpipe libraries and the sccbench binary from the source tree
around this directory (into .bench_build/sccbench), then runs the binary
with one simulation thread. Its last stdout line is the result object;
build output goes to stderr. Extra flags (--frames, --size, --golden,
--write-golden, --tamper) pass through to the binary; the self-test uses
them.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "sccbench")
BINARY = os.path.join(BUILD, "sccbench")
WORKLOADS = ("figure_grid", "functional_frames", "chaos_mix")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def sources_present():
    return os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) and \
        os.path.isdir(os.path.join(ROOT, "include", "sccpipe"))


def build():
    """Configure once, then an incremental build (a no-op when current)."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty",
                              "--tags"], cwd=ROOT, capture_output=True,
                             text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "no git"
    return out.stdout.strip() if out.returncode == 0 else "not a git checkout"


def source_digest():
    """SHA-256 over the sources the binary is built from, for provenance
    when the checkout has no git metadata."""
    h = hashlib.sha256()
    for top in ("include", "src", os.path.join("sccbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def parse_seed(text):
    """A non-negative decimal or 0x-prefixed hexadecimal seed."""
    value = int(text, 16) if text.lower().startswith("0x") else int(text, 10)
    if value < 0:
        raise ValueError(text)
    return value


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=parse_seed, default=0x5cc91234)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()

    if not sources_present():
        log(f"no sccpipe sources under {ROOT}; nothing to build")
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 3

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", os.path.join(HERE, "golden.txt"),
           "--out", os.path.join(ROOT, ".bench_out"),
           "--git-describe", git_describe(),
           "--source-digest", source_digest()] + extra
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"{args.workload} exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 4


if __name__ == "__main__":
    sys.exit(main())
