#!/usr/bin/env python3
"""Builds the qbss benchmark (Release) and runs one workload.

    python3 qbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0
    python3 qbench/run.py --selftest

Run it from the root of a checkout. The programs under test and the qbench
binary are built from source into .bench_build/qbench (or
$CARGO_TARGET_DIR/qbench when that is set). Build output goes to stderr;
qbench's report and, as the last line of stdout, its JSON result go to
stdout. Traces, layer
tables and a results.jsonl history land in <build dir>/out.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("serve_hot", "serve_miss", "fleet_disk", "sweep_table1")


def fail(message, code=2):
    print("qbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "qbench")


def build(bdir):
    """Configures once, then brings qbench, its self-tests and the qbss CLI
    up to date."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "qbench"), "-B", bdir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            fail("configure failed", 1)
    cmd = ["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1),
           "--target", "qbench", "qbench_selftest"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)


def cache_entries(bdir):
    entries = {}
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                entries[key.split(":", 1)[0]] = value
    return entries


def source_digest():
    """sha256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    for needed in ("CMakeLists.txt", os.path.join("src", "svc", "server.cpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no qbss source tree at " + ROOT + " (missing " + needed + ")")

    bdir = build_dir()
    # Compilers and the programs under test keep their scratch files
    # inside the checkout.
    os.environ["TMPDIR"] = os.path.join(bdir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    build(bdir)
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(bdir, "qbench_selftest")]).returncode)

    cache = cache_entries(bdir)
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        fail("refusing to record results from a %r build"
             % cache.get("CMAKE_BUILD_TYPE"), 3)
    provenance = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "QBSS_OBS": cache.get("QBSS_OBS"),
        "QBSS_FAULTS": cache.get("QBSS_FAULTS"),
        "QBSS_SIMD": cache.get("QBSS_SIMD"),
    }
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "qbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--qbss", os.path.join(bdir, "qbss", "tools", "qbss"),
           "--out", out_dir,
           "--provenance", json.dumps(provenance, sort_keys=True)]
    sys.stdout.flush()
    os.execv(cmd[0], cmd)


if __name__ == "__main__":
    main()
