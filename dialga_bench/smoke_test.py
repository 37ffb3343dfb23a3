#!/usr/bin/env python3
"""dialga_bench_smoke: every workload at --smoke sizes, traced, in a few seconds.

    python3 smoke_test.py --binary PATH --benchmark-json PATH --work-dir DIR

Checks that each workload exits 0 with correct outputs and no failed
operation, emits every BENCHMARK.json metric with its unit (end-to-end
and per-layer), writes a Chrome trace and layers.json that parse, and
that its input digest (generated inputs plus arrival schedule) repeats
for --seed 1 and changes for --seed 2.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary", required=True)
    ap.add_argument("--benchmark-json", required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()
    with open(args.benchmark_json) as f:
        spec = json.load(f)
    shutil.rmtree(args.work_dir, ignore_errors=True)
    data = os.path.join(args.work_dir, "data")
    problems = []

    def run(workload, *extra):
        cmd = [args.binary, "--workload", workload, "--smoke", "--data-dir", data, *extra]
        return subprocess.run(cmd, capture_output=True, text=True, timeout=60)

    def digest(workload, seed):
        # The same --seconds and tracing as the checked run: the arrival
        # schedule is generated for the run's phase length.
        p = run(workload, "--seed", str(seed), "--seconds", "0.2", "--trace-out",
                os.path.join(args.work_dir, "unused"), "--inputs-only")
        return p.stdout.split()[-1] if p.returncode == 0 and p.stdout else None

    for w in [x["name"] for x in spec["workloads"]]:
        trace_dir = os.path.join(args.work_dir, "trace", w)
        p = run(w, "--seed", "1", "--seconds", "0.2", "--trace-out", trace_dir)
        if p.returncode != 0:
            problems.append(f"{w}: exit {p.returncode}: {p.stderr.strip()[-500:]}")
            continue
        result = json.loads(p.stdout.splitlines()[-1])
        if not result["correct"] or result["failed"] != 0:
            problems.append(f"{w}: correct={result['correct']} failed={result['failed']}")
        if result["metrics"].get("failed_ratio", {}).get("value") != 0:
            problems.append(f"{w}: failed_ratio is not 0")
        for group, key in (("end_to_end", "metrics"), ("per_layer", "layers")):
            for m in spec[group]:
                got = result[key].get(m["name"])
                if got is None or got["unit"] != m["unit"] or got["value"] is None:
                    problems.append(f"{w}: {m['name']} [{m['unit']}] missing: {got}")
        for name in ("trace.json", "layers.json"):
            try:
                with open(os.path.join(trace_dir, name)) as f:
                    json.load(f)
            except (OSError, ValueError) as e:
                problems.append(f"{w}: {name} does not parse: {e}")
        first, again, other = digest(w, 1), digest(w, 1), digest(w, 2)
        if first is None or first != again or first != result["input_digest"]:
            problems.append(f"{w}: --seed 1 digests differ: {first} {again} "
                            f"{result['input_digest']}")
        if other is None or other == first:
            problems.append(f"{w}: --seed 2 digest {other} does not differ from {first}")

    for line in problems:
        print("FAIL", line)
    print("dialga_bench_smoke:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
