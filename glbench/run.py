#!/usr/bin/env python3
"""Builds and runs the glbarrier benchmark (see README.md beside this file).

    python3 glbench/run.py --workload paper32 --seed 7 --seconds 20 --trace 0

Run from the root of a glbarrier source tree. The first call configures
and builds the simulator's libraries and the glbench binary into
.bench_build/glbench (RelWithDebInfo, the repository's default build
type); later calls rebuild only what changed. The workload then runs in
one single-threaded glbench process, whose output is passed through:
the last line of stdout is the result object (correct, attempted,
failed, metrics). Full records (provenance, run fingerprints, every
metric, and with --trace 1 the spans) are written to .bench_out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper32", "em3d256-glh", "build1024")
BUILD_TYPE = "RelWithDebInfo"
# A run measures for --seconds and then finishes its last pass, its
# profiled pass and the drivers; anything much longer is a hang.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"glbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_id(root):
    """The git commit of the tree, or a content hash when it has no git."""
    try:
        sha = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(root), "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, check=True).stdout.strip()
        return sha + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha1()
    files = [root / "CMakeLists.txt"]
    for sub in ("src", "glbench"):
        files += sorted(p for p in (root / sub).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes() + b"\0")
    return "tree-sha1-" + h.hexdigest()


def build(root):
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = root / ".bench_build" / "glbench"
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(root / "glbench"), "-B", str(build_dir),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "glbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int,
                    help="EM3D graph seed (default: the registry's 0xE3D)")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must not be negative")

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"{root} is not a glbarrier source tree (no CMakeLists.txt and src/)")

    binary = build(root)
    cmd = [str(binary), "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--sha", source_id(root),
           "--out-dir", str(root / ".bench_out")]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 3)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(out)
        fail(f"glbench exited {proc.returncode} without a result line", proc.returncode or 3)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
