"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at the tiny scale, untraced and traced, and fails
unless each run is correct and emits exactly the metrics BENCHMARK.json
names, each with the unit given there.  Takes about half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WHY  # noqa: E402


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    workloads = [w["name"] for w in bench["workloads"]]
    problems = []
    if {w["name"]: w["why"] for w in bench["workloads"]} != WHY:
        problems.append("BENCHMARK.json workloads differ from workloads.WHY")
    for trace in (0, 1):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "1",
               "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        if proc.returncode != 0:
            problems.append(f"trace {trace}: exit {proc.returncode}: {proc.stderr[-2000:]}")
            continue
        results = json.loads(proc.stdout.strip().splitlines()[-1])
        for name in workloads:
            result = results.get(name)
            if result is None:
                problems.append(f"{name} trace {trace}: no result")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{name} trace {trace}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} trace {trace}: not correct: {result}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{name} trace {trace}: metrics {got} != {expected[trace]}")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                problems.append(f"{name} trace {trace}: non-numeric value")
    for problem in problems:
        print("FAIL", problem)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
