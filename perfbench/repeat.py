"""Steadiness check: repeated runs of run.py, one seed each, summarised.

    python3 perfbench/repeat.py --runs 10 --seconds 30 [--workload NAME ...] [--trace 1]

Runs the workloads round-robin, so each workload's runs are spread over
the whole session rather than back to back, and prints for every metric
the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median. The bounds in BENCHMARK.json come from these spreads.
--json FILE also writes every run's result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import HERE, ROOT, WORKLOADS


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)

    results: dict[str, list[dict]] = {name: [] for name in names}
    for i in range(args.runs):
        for name in names:
            result = run_once(name, args.first_seed + i, args.seconds, args.trace)
            results[name].append(result)
            brief = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{name} seed {args.first_seed + i}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {brief}", flush=True)

    for name, runs in results.items():
        print(f"\n{name}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, "
              f"failed share: {sorted({r['failed'] / r['attempted'] for r in runs})}")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        for metric in runs[0]["metrics"]:
            s = summary([r["metrics"][metric]["value"] for r in runs])
            print(f"  {metric:28s} {s['median']:12.4f} {s['q1']:12.4f} {s['q3']:12.4f} "
                  f"{100 * s['spread']:7.2f}%")
    if args.json:
        args.json.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
