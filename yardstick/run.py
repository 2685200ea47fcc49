#!/usr/bin/env python3
"""Builds the yardstick harness from source and runs one workload.

    python3 yardstick/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (any directory works; paths are resolved
from this file). The first run in a checkout configures and builds the
library and harness in Release mode under $CARGO_TARGET_DIR (default
.bench_build)/yardstick; later runs only check that the build is current.

The last line of stdout is the harness's JSON result. With --trace 1,
the run's spans are kept in the build directory as
spans-<workload>-<seed>.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within this many seconds; the first build may take longer.
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 700


def log(message):
    print(f"yardstick: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "yardstick"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources at {ROOT / 'src'}; run from a full checkout")
        sys.exit(2)
    deadline = time.monotonic() + BUILD_LIMIT_S
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_LIMIT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "yardstick", "-j", jobs],
        check=True, stdout=sys.stderr,
        timeout=max(1.0, deadline - time.monotonic()))
    return out / "yardstick"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as err:
        log(f"build failed: {err}")
        sys.exit(1)

    args_out = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        spans = out / f"spans-{args.workload}-{args.seed}.jsonl"
        args_out += ["--spans", str(spans)]
    try:
        proc = subprocess.run([str(binary)] + args_out,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_LIMIT_S} s")
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"harness exited with {proc.returncode}")
        sys.exit(1)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
