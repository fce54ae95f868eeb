"""Harness self-check: at a tiny size (2 epochs), every workload emits every
metric BENCHMARK.json names, with its unit, untraced and traced.

    python3 perfbench/selfcheck.py

Exits 0 when everything is emitted; otherwise prints each problem and
exits 1. Takes about 15 seconds.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import run


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    if expected[0] != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if expected[1] != run.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    for w in bench["workloads"]:
        for trace in (0, 1):
            where = f"{w['name']} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", w["name"],
                 "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=300,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            last = json.loads(lines[-1])
            if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(last)}")
            if not last["correct"] or last["failed"] or last["attempted"] < 1:
                problems.append(f"{where}: correct={last['correct']} failed={last['failed']}")
            got = {k: m["unit"] for k, m in last["metrics"].items()}
            for k in expected[trace].keys() - got.keys():
                problems.append(f"{where}: metric {k} not emitted")
            for k in got.keys() - expected[trace].keys():
                problems.append(f"{where}: metric {k} not in BENCHMARK.json")
            for k in got.keys() & expected[trace].keys():
                v = last["metrics"][k]["value"]
                if got[k] != expected[trace][k]:
                    problems.append(f"{where}: {k} unit {got[k]} != {expected[trace][k]}")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append(f"{where}: {k} value {v!r}")
            if trace == 0 and not any(l.startswith(f"{w['name']} failed_ops_ratio = ") for l in lines):
                problems.append(f"{where}: failed_ops_ratio not printed")
            print(f"{where}: {len(got)} metrics", flush=True)
    for p in problems:
        print(f"PROBLEM {p}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
