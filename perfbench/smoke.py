#!/usr/bin/env python3
"""Smoke test of the release benchmark: every workload at the tiny size,
untraced and traced, in a few seconds each.

    python3 perfbench/smoke.py

Each invocation must exit 0 and end with a result line that is correct
(every Run ok, the likelihood-ratio audit passed, and in traced mode the
replay released what Run released), failed nothing, and printed exactly
the metrics BENCHMARK.json names for its mode, each with its unit.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(spec, workload, trace):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if result["correct"] is not True:
        problems.append("result is not correct")
    if result["attempted"] < 1 or result["failed"] != 0:
        problems.append(f"attempted {result['attempted']}, "
                        f"failed {result['failed']}")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != wanted:
        problems.append(f"metrics differ from BENCHMARK.json: printed "
                        f"{sorted(printed.items())}, want "
                        f"{sorted(wanted.items())}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check(spec, workload, trace)
            print(f"{workload:9s} trace={trace}: "
                  f"{'ok' if not problems else '; '.join(problems)}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
