#!/usr/bin/env python3
"""Build and run the dialga end-to-end benchmark (see README.md).

    python3 dialga_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 dialga_bench/run.py --seed N            # every workload, one process each

Builds the benchmark binary from the checkout this file sits in (into
$CARGO_TARGET_DIR, default .bench_build), runs one workload per process,
stores the binary's full result (environment, input digest, every
metric) under .bench_out/results/, echoes the metric lines, and prints
as its last line the result for the metrics BENCHMARK.json lists:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Exits nonzero when the build fails, an output is not bit-exact, an
operation fails, or a listed metric is missing.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"dialga_bench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "svc", "stripe_service.h")):
        fail(f"{ROOT} holds no dialga sources to build the benchmark against")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "dialga_bench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", build_dir, "--target", "dialga_bench", "-j", jobs]]
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                             "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "dialga_bench")


def run_workload(binary, args, workload):
    out = os.path.join(ROOT, ".bench_out")
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--data-dir", os.path.join(out, "data")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(out, "trace", f"{workload}-seed{args.seed}")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload} exited {proc.returncode} without a result", proc.returncode or 1)
    os.makedirs(os.path.join(out, "results"), exist_ok=True)
    name = f"{time.time_ns()}-{workload}-seed{args.seed}-trace{int(args.trace)}.json"
    with open(os.path.join(out, "results", name), "w") as f:
        json.dump(result, f)
        f.write("\n")
    return proc.returncode, result


def contract_line(spec, result, trace, ok):
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    measured = result["layers"] if trace else result["metrics"]
    metrics = {}
    for m in listed:
        got = measured.get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            fail(f"{result['workload']}: metric {m['name']} [{m['unit']}] missing or "
                 f"in another unit: {got}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": bool(result["correct"]) and ok, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="default: every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    worst = 0
    for workload in [args.workload] if args.workload else names:
        code, result = run_workload(binary, args, workload)
        print(json.dumps(contract_line(spec, result, args.trace, code == 0)), flush=True)
        worst = worst or code
    sys.exit(worst)


if __name__ == "__main__":
    main()
