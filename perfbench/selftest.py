"""The benchmark's own test: every workload run.py offers, untraced and traced, on small inputs.

    python3 perfbench/selftest.py

Runs run.py with `--small` as a benchmark harness would run it and checks that
each run is correct, fails nothing, and reports exactly the metrics
BENCHMARK.json names, with their units.  Takes a few seconds per run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def check(workload: str, trace: int) -> list[str]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", "7", "--seconds", "1", "--trace", str(trace), "--small",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 100:
        problems.append(
            f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}"
        )
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
    for name, m in result["metrics"].items():
        # End-to-end metrics are never 0, but small inputs may add no resident
        # memory beyond what loading them mapped; per-layer KB metrics are 0
        # without a KB.
        if not isinstance(m["value"], (int, float)) or m["value"] < 0 or (
            m["value"] == 0 and not trace and name != "peak_rss_mb"
        ):
            problems.append(f"{name} = {m['value']!r}")
    return problems


def main() -> int:
    bad = 0
    for workload in sorted(WORKLOADS):
        for trace in (0, 1):
            problems = check(workload, trace)
            print(f"{workload} trace={trace}: {'; '.join(problems) or 'ok'}")
            bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
