#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at the shortest run length.

    python3 bench/selftest.py

Checks that each run prints every metric declared in BENCHMARK.json by
name with its unit, in the text lines and in the closing JSON object, and
that a deliberately wrong reference file makes every operation count as
failed, so the output checks can fail.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SECONDS = "1"


def run(workload: str, trace: int, *extra: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", SECONDS, "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def wrong_refs() -> Path:
    """A copy of refs.json with every p11 moved by 0.01."""
    refs = json.loads((BENCH / "refs.json").read_text())
    for table in refs.values():
        for entry in table.values():
            entry["p11"] += 0.01
    path = BENCH / "out" / "wrong_refs.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(refs))
    return path


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in declared.items():
            lines, result = run(workload, trace)
            where = f"{workload} trace {trace}"
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                errors.append(f"{where}: {result['failed']} of {result['attempted']} failed")
            for m in metrics:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    errors.append(f"{where}: {m['name']} missing from the JSON or wrong unit")
                if not any(line.strip().startswith(f"{m['name']} = ")
                           and line.strip().endswith(f" {m['unit']}") for line in lines):
                    errors.append(f"{where}: no '{m['name']} = ... {m['unit']}' line")
            if set(result["metrics"]) != {m["name"] for m in metrics}:
                errors.append(f"{where}: undeclared metrics in the JSON")
            if not any(line.strip().startswith("fail_ratio = 0 1") for line in lines):
                errors.append(f"{where}: fail_ratio not printed as 0")
        lines, result = run(workload, 0, "--refs", str(wrong_refs()))
        if result["correct"] or result["failed"] != result["attempted"]:
            errors.append(f"{workload}: wrong reference gave {result['failed']} failed "
                          f"of {result['attempted']}")
        if not any(line.strip().startswith("fail_ratio = 1 1") for line in lines):
            errors.append(f"{workload}: wrong reference not counted in fail_ratio")
        print(f"{workload}: checked", flush=True)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
