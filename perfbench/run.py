#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload annotate-cold --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
libraries under src/ plus the benchmark program into $CARGO_TARGET_DIR (default
.bench_build); later runs rebuild incrementally. The last line of standard
output is the result object; the line before it is the snowwhite.bench.v1
record with the run's metadata. --out FILE also appends both, as one JSON
line, to FILE (the input format of compare.py).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over every file under src/, so a record names the code it
    measured even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    """Configures (once) and builds; returns the benchmark binary's path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            result = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            if result.returncode != 0:
                log.flush()
                with open(log_path) as handle:
                    sys.stderr.write(handle.read()[-4000:])
                fail("build failed (%s)" % " ".join(step[:2]), 1)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--out", help="append the run's record to this file")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_root = os.path.abspath(os.path.join(ROOT, target))
    binary = build(os.path.join(build_root, "perfbench"))

    work_dir = os.path.join(build_root, "work-%s-%d" % (args.workload, os.getpid()))
    env = dict(os.environ)
    # One thread, one daemon worker: README.md explains why.
    env["SNOWWHITE_THREADS"] = "1"
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", work_dir, "--git-sha", git_sha(),
               "--build-type", BUILD_TYPE]
    if args.smoke:
        command.append("--smoke")
    try:
        result = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                                text=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = [line for line in result.stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        sys.stdout.write(result.stdout)
        fail("the benchmark printed no result (exit %d)" % result.returncode, 1)
    record = json.loads(lines[-2])
    record["source_digest"] = source_digest()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        record["why"] = {w["name"]: w["why"] for w in json.load(handle)["workloads"]}.get(
            args.workload, "")
    outcome = json.loads(lines[-1])
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps(dict(record, result=outcome)) + "\n")
    print(json.dumps(record))
    print(lines[-1])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
