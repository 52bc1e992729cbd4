#!/usr/bin/env python3
"""Validate the machine-readable benchmark snapshots at the repo root.

Every BENCH_*.json must (a) parse as JSON and (b) carry an integer
schema_version, so downstream tooling (and CI trend jobs) can rely on the
files without per-bench special cases. Run from anywhere:

    python3 tools/check_bench_json.py [repo_root]

Exit code 0 when every snapshot is valid, 1 otherwise. Stdlib only.
"""

import glob
import json
import os
import sys


def check(path: str) -> list:
    problems = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"does not parse: {e}"]
    if not isinstance(doc, dict):
        return ["top-level value is not an object"]
    version = doc.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool):
        problems.append(f"schema_version missing or not an integer: {version!r}")
    if not doc.get("bench"):
        problems.append("missing 'bench' name")
    return problems


def main() -> int:
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir)
    paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    if not paths:
        print(f"check_bench_json: no BENCH_*.json found under {root}", file=sys.stderr)
        return 1
    failed = False
    for path in paths:
        problems = check(path)
        name = os.path.basename(path)
        if problems:
            failed = True
            for p in problems:
                print(f"FAIL {name}: {p}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
