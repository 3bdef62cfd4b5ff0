#!/usr/bin/env python3
"""Build pqbench from source and run one workload.

    python3 pqbench/run.py --workload twip-warm --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The build goes to
$CARGO_TARGET_DIR/pqbench (default .bench_build/pqbench); build output goes
to stderr. Standard output ends with two JSON lines: the run's provenance
(build, host, deployment, and every metric's in-run repetitions with their
median and quartiles), then the result line
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit code is nonzero when the build fails, the run times out, or a
correctness gate fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; the binary is stopped before that.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "pqbench")


def build(bdir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", "pqbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("pqbench: build failed: " + " ".join(cmd))


def source_digest():
    """SHA-256 over the engine and benchmark sources, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "pqbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_state():
    """(sha, dirty) of the checkout, or (None, None) outside git. Git may
    not look above the checkout for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*argv):
        return subprocess.run(["git", "-C", ROOT] + list(argv), env=env,
                              capture_output=True, text=True, timeout=10)
    try:
        sha = git("rev-parse", "HEAD")
        if sha.returncode:
            return None, None
        dirty = git("status", "--porcelain")
        return sha.stdout.strip(), bool(dirty.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return None, None


def cpu_times():
    """Aggregate (steal, total) jiffies from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7] if len(fields) > 7 else 0, sum(fields)
    except (OSError, ValueError):
        return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    build(bdir)
    cmd = [os.path.join(bdir, "pqbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--scratch", os.path.join(bdir, "scratch")]
    cpu0 = cpu_times()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("pqbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit("pqbench: the run printed no result (exit %d)"
                 % proc.returncode)
    run = json.loads(lines[-1])
    cpu1 = cpu_times()
    steal = None
    if cpu0 and cpu1 and cpu1[1] > cpu0[1]:
        # CPU time the hypervisor gave to others while the run lasted.
        steal = (cpu1[0] - cpu0[0]) / (cpu1[1] - cpu0[1])

    sha, dirty = git_state()
    provenance = {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_steal_frac": steal,
        "workload": run["workload"],
        "seed": run["seed"],
        "trace": run["trace"],
        "seconds": run["seconds"],
        "scale": run["scale"],
        "deployment": run["deployment"],
        "build": run["build"],
        "fail_frac": run["fail_frac"],
        "latency_valid": run["latency_valid"],
        "notes": run["notes"],
        "metrics": run["metrics"],
        "reported_not_gated": run["reported"],
    }
    print(json.dumps({"provenance": provenance}))
    result = {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in run["metrics"].items()},
    }
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
