#!/usr/bin/env python3
"""wormnet end-to-end benchmark: build, run one workload, report.

Run from the root of a wormnet checkout:

    python3 perfbench/run.py --workload whatif --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (which compiles the checkout's src/) into
$CARGO_TARGET_DIR/perfbench-<hash of this checkout's perfbench/ path>
(default .bench_build/...) with CMake in Release mode, runs the wormnet_bench
binary, and prints its record line, a host line, and last one JSON object:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"name": {"value": v, "unit": "u"}, ...}}

--seconds defaults to BENCHMARK.json's run_seconds.  --trace 0 reports the
end_to_end metrics of BENCHMARK.json, --trace 1 the per_layer ones (and
writes the span trace as Chrome JSON into the build directory); a per-layer
metric the workload's layers never reach is reported as 0.  Exits non-zero, printing no result, when the build fails; exits
non-zero after printing the result when a correctness check failed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    """One build directory per checkout, so checkouts sharing a
    $CARGO_TARGET_DIR never build each other's sources."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    tag = hashlib.sha256(os.path.realpath(HERE).encode()).hexdigest()[:12]
    return os.path.join(target, "perfbench-" + tag)


def configured_for_here(out):
    """True when `out` holds a CMake cache configured from this perfbench/."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        return False
    home = cmake_cache(out).get("CMAKE_HOME_DIRECTORY", "")
    return bool(home) and os.path.realpath(home) == os.path.realpath(HERE)


def build(target):
    """Configure (again, if the cache is another checkout's) and build
    `target`; returns the build directory."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not configured_for_here(out):
            for stale in ("CMakeCache.txt", "CMakeFiles"):
                path = os.path.join(out, stale)
                if os.path.isdir(path):
                    shutil.rmtree(path)
                elif os.path.exists(path):
                    os.remove(path)
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", out, "-j", jobs,
                        "--target", target],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def cmake_cache(out):
    vals = {}
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, val = line.rstrip("\n").split("=", 1)
                vals[key.split(":", 1)[0]] = val
    return vals


def source_digest():
    """sha256 over the library sources the benchmark built."""
    h = hashlib.sha256()
    src = os.path.join(REPO, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, REPO).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def host_record(out, args):
    cache = cmake_cache(out)
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([cxx, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(x for x in [
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), ""),
        "-std=c++20 -Wall -Wextra"] if x)
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": version,
            "flags": flags, "build_type": build_type, "commit": commit,
            "source_sha256": source_digest(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def benchmark_spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def declared_metrics(spec, trace):
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_selftest():
    out = build("perfbench_selftest")
    return subprocess.run([os.path.join(out, "perfbench_selftest")],
                          timeout=RUN_TIMEOUT_S).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    if not os.path.exists(os.path.join(REPO, "src", "wormnet.hpp")):
        log("perfbench: no wormnet sources (src/) in " + REPO)
        return 2
    spec = benchmark_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    try:
        if args.selftest:
            return run_selftest()
        if not args.workload:
            p.error("--workload is required")
        out = build("wormnet_bench")
    except (subprocess.CalledProcessError, OSError) as e:
        log("perfbench: build failed: %s" % e)
        return 3

    cmd = [os.path.join(out, "wormnet_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 4
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        log("perfbench: wormnet_bench exited %d" % run.returncode)
        return 5
    result = json.loads(lines[-1])
    units = declared_metrics(spec, args.trace)
    got = set(result["metrics"])
    if not got <= set(units) or (not args.trace and got != set(units)):
        log("perfbench: metrics %s do not match BENCHMARK.json %s"
            % (sorted(got), sorted(units)))
        return 6
    result["metrics"] = {k: {"value": result["metrics"].get(k, 0.0),
                             "unit": units[k]}
                         for k in sorted(units)}
    for line in lines[:-1]:
        print(line)
    print("host " + json.dumps(host_record(out, args), sort_keys=True))
    print(json.dumps(result), flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
