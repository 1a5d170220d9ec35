#!/usr/bin/env python3
"""Builds the NAI benchmark from source and runs one workload.

Run from the repository root:

    python3 benchmark/run.py --workload offline-products --seed 1 \
        --seconds 20 --trace 0

The library under src/ and the benchmark in this directory are compiled
into .bench_build/ (or $CARGO_TARGET_DIR when set), then the benchmark
program (nai_bench) runs the named workload. Build output goes to stderr;
the last line of stdout is its JSON result.

    python3 benchmark/run.py --self-test

builds and runs the reference's own tests instead.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "naibench"


def build(target: str) -> Path:
    if not (REPO_ROOT / "src").is_dir():
        sys.exit("benchmark: no src/ tree next to benchmark/; nothing to build")
    out = build_dir()
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out / "cmake"),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (out / "cmake" / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", str(out / "cmake"), "--target", target,
                 "-j", "4"]):
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit(f"benchmark: build step failed: {' '.join(cmd)}")
    return out / "cmake" / target


def main() -> int:
    args = sys.argv[1:]
    if args == ["--self-test"]:
        return subprocess.run([str(build("reference_test"))]).returncode
    binary = build("nai_bench")
    cmd = [str(binary), *args, "--out", str(build_dir() / "out")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
