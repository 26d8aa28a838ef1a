#!/usr/bin/env python3
"""Run every workload of the solve benchmark, untraced and traced, plus the
known-defects probe, and print every metric by name with its unit.

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--out FILE]

Each run is its own `perfbench/run.py` process.  With --out the table is also
written as JSON (workload -> mode -> metric -> value and unit), which is how
perfbench/baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
METRIC_LINE = re.compile(r"^(\S+) = (\S+) (\S+)")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    metrics = {}
    for line in lines[:-1]:
        if line.startswith("FAIL "):
            print(f"  {workload}: {line}")
        m = METRIC_LINE.match(line)
        if m:
            metrics[m.group(1)] = {"value": float(m.group(2)), "unit": m.group(3)}
    # the printed lines round; keep the JSON's full digits where it has them
    metrics.update(result["metrics"])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    runs = [(w["name"], trace) for w in spec["workloads"] for trace in (0, 1)]
    # one pass over the instances that fail at the seed commit
    runs.append(("known-defects", 0))
    table: dict = {}
    for workload, trace in runs:
        seconds = 1 if workload == "known-defects" else args.seconds
        res = run_one(workload, args.seed, seconds, trace)
        table.setdefault(workload, {})["traced" if trace else "untraced"] = res
        print(f"{workload} ({'traced' if trace else 'untraced'}): "
              f"correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    if args.out:
        args.out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                                        "workloads": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
