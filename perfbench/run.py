#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the SALO library and the workload runner from this checkout's
sources into .bench_build/perfbench (Release, first run only), runs the
workload, and prints as its last stdout line one JSON object with
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics
are the end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer
metrics; a per-layer metric the workload does not exercise reads 0. The
full record (host fingerprint, every metric, sample counts) is written to
.bench_build/perfbench/results/, and a traced run's spans to
.bench_build/perfbench/trace-<workload>-seed<n>.json.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr (stdout carries the result)."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}", 1)


def build():
    if not (ROOT / "src" / "core" / "engine.hpp").is_file():
        fail(f"no SALO sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            run_logged(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *generator], BUILD_TIMEOUT_S)
        run_logged(["cmake", "--build", str(BUILD), "-j", jobs], BUILD_TIMEOUT_S)


def run_workload(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {', '.join(workloads)}")
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(BUILD)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail(f"{args.workload} exited {proc.returncode} without a result", 1)
    print("\n".join(lines[:-1]))
    record = json.loads(lines[-1])

    section = "per_layer" if args.trace else "end_to_end"
    measured = record[section]
    metrics = {}
    for m in spec[section]:
        name, unit = m["name"], m["unit"]
        got = measured.get(name)
        if got is None:
            if section == "end_to_end":
                fail(f"{args.workload} did not report {name}", 1)
            got = {"value": 0, "unit": unit}  # layer not exercised by this workload
        if got["unit"] != unit:
            fail(f"{name}: unit {got['unit']!r} but BENCHMARK.json says {unit!r}", 1)
        metrics[name] = {"value": got["value"], "unit": unit}
    result = {"correct": bool(record["correct"]) and proc.returncode == 0,
              "attempted": int(record["attempted"]), "failed": int(record["failed"]),
              "metrics": metrics}

    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({"run": vars(args), "runner": record,
                                            "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's self-tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.selftest:
        return subprocess.run([str(BUILD / "perfbench_selftest")], cwd=ROOT).returncode
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
