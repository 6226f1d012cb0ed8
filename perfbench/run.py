#!/usr/bin/env python3
"""Build and run the alive-cpp benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the library sources under
src/ plus the benchmark driver) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset; later calls rebuild
only what changed. A run prints, as the last line of standard output, one
JSON object with the keys correct, attempted, failed and metrics; the full
record of the run (host and build metadata, sample counts, the slowest
items, spans) is written under <build dir>/results.

--self-test builds and runs the benchmark's own unit tests, checks that
BENCHMARK.json names exactly the metrics the driver reports, and runs the
workloads BENCHMARK.json leaves out once, briefly, through their gates.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# alived-mixed runs on request but is not in BENCHMARK.json: on shared
# hosts its latencies swing with disk and scheduler latency far beyond
# any useful bound (see perfbench/README.md).
WORKLOADS = ("int-corpus", "fp-corpus", "discover-sweep", "alived-mixed")
BUILD_TYPE = "RelWithDebInfo"


def fail(msg, code=2):
    print("perfbench: error: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; fails the run on error."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build(bdir, targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "verifier", "Verifier.h")):
        fail("no alive-cpp sources under " + os.path.join(ROOT, "src"))
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(bdir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            run_quiet(["cmake", "-S", HERE, "-B", bdir,
                       "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        run_quiet(["cmake", "--build", bdir, "-j", jobs, "--target"] + targets)


def commit_id():
    """The git commit, or a digest of src/ when the checkout has no git."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def self_test(bdir):
    build(bdir, ["alive_perfbench", "perfbench_selftest"])
    code = subprocess.run([os.path.join(bdir, "perfbench_selftest")],
                          cwd=ROOT).returncode
    listed = subprocess.run([os.path.join(bdir, "alive_perfbench"),
                             "--list-metrics"], cwd=ROOT,
                            capture_output=True, text=True, check=True)
    reported = {"end_to_end": [], "per_layer": []}
    for line in listed.stdout.splitlines():
        kind, name, unit = line.split()
        reported[kind].append((name, unit))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    for kind in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"]) for m in config[kind]]
        if declared != reported[kind]:
            print("perfbench: BENCHMARK.json %s differs from the driver's "
                  "metrics:\n  declared %s\n  reported %s"
                  % (kind, declared, reported[kind]), file=sys.stderr)
            code = code or 1
    gated = [w["name"] for w in config["workloads"]]
    unknown = [w for w in gated if w not in WORKLOADS]
    if unknown:
        print("perfbench: BENCHMARK.json names unknown workloads %s" % unknown,
              file=sys.stderr)
        code = code or 1
    # The workloads the gate does not run get one short run here, so their
    # correctness gates keep passing.
    for workload in WORKLOADS:
        if workload not in gated:
            run = subprocess.run(
                [os.path.join(bdir, "alive_perfbench"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", "0",
                 "--work", os.path.relpath(os.path.join(bdir, "work"), ROOT)],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            if run.returncode != 0:
                print("perfbench: %s failed:\n%s" % (workload, run.stderr),
                      file=sys.stderr)
                code = code or 1
    print("perfbench: self-test " + ("passed" if code == 0 else "FAILED"))
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    bdir = build_dir()
    if args.self_test:
        return self_test(bdir)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build(bdir, ["alive_perfbench"])
    cmd = [os.path.join(bdir, "alive_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ".",
           # Relative, so the server's unix socket path stays short.
           "--work", os.path.relpath(os.path.join(bdir, "work"), ROOT),
           "--out", os.path.join(bdir, "results"),
           "--commit", commit_id()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, timeout=170).returncode


if __name__ == "__main__":
    sys.exit(main())
