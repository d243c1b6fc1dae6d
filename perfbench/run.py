"""odqa benchmark: one seeded workload, measured in a fresh child process.

    python3 perfbench/run.py --workload audit-exact --seed 1 --seconds 30 --trace 0

Builds the workload's input with odqa.generator.generate_fixture, refuses
it if its sha256 differs from the one README.md records, times a cold
set-up and then repeats the workload's commands in perfbench/child.py for
--seconds, and checks the outputs against oracle.py. The last line of
stdout is one JSON object: with --trace 0 the end-to-end metrics, with
--trace 1 the per-layer metrics of a second, traced half of the run.
Input generation and the oracle are outside every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import HERE, ROOT, SRC, WORK, WORKLOADS, InputChanged

CHILD_HASH_SEED = "0"
CHILD_GRACE_S = 150

END_TO_END = {"run_s": "s", "mb_per_s": "MB/s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "ingest.bare_s": "s",
    "ingest.self_s": "s",
    "ingest.rows": "count",
    "timestamps.self_s": "s",
    "timestamps.parse_calls": "count",
    "timestamps.distinct_inputs": "count",
    "profiling.consume_s": "s",
    "profiling.finish_s": "s",
    "profiling.exact_entries": "count",
    "profiling.sketch_columns": "count",
    "dictionary.consume_s": "s",
    "dictionary.drift_s": "s",
    "temporal.consume_s": "s",
    "temporal.finish_s": "s",
    "domain_rules.consume_s": "s",
    "domain_rules.finish_s": "s",
    "redundancy.consume_s": "s",
    "redundancy.finish_s": "s",
    "findings.emit_s": "s",
    "findings.emitted": "count",
    "findings.sampled": "count",
    "report.sha256_s": "s",
    "report.build_s": "s",
    "report.render_s": "s",
    "reduce.plan_s": "s",
    "reduce.apply_s": "s",
    "reduce.rebuild_s": "s",
    "reduce.output_bytes": "bytes",
    "config.load_s": "s",
    "pipeline.self_s": "s",
    "trace.overhead_s": "s",
}

# what reduce-padded's plan must hold, in plan order
EXPECTED_PLAN = [
    ("drop", "location"),
    ("drop", "park_borough"),
    ("segregate", "taxi_company_borough"),
    ("encode", "agency"),
    ("encode", "complaint_type"),
    ("encode", "status"),
]


class BenchError(Exception):
    pass


def run_child(spec: dict) -> tuple[float, dict]:
    """Start child.py; returns the cold set-up time and its measurements."""
    env = dict(os.environ, PYTHONHASHSEED=CHILD_HASH_SEED)
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate(timeout=spec["seconds"] + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("the measured child did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        raise BenchError(f"the measured child failed (exit {proc.returncode})")
    return setup_s, json.loads(lines[-1])


def check_outputs(workload, inputs, measured: dict) -> list[str]:
    """Every problem found in the run's outputs; empty when all are right."""
    try:
        return _check_outputs(workload, inputs, measured)
    except (OSError, ValueError, KeyError) as exc:
        return [f"outputs unreadable: {type(exc).__name__}: {exc}"]


def _check_outputs(workload, inputs, measured: dict) -> list[str]:
    import oracle

    problems = []
    digests = measured["report_digests"]
    if None in digests or len(set(digests)) != 1:
        problems.append("report.json differs between repetitions")
    if workload.kind == "audit":
        report = json.loads((inputs.out_dir / "report.json").read_text(encoding="utf-8"))
        expected = oracle.audit_counts(
            inputs.csv, inputs.zips,
            cutoff_days=workload.extreme_cutoff_days,
            window_days=workloads.POST_CLOSE_WINDOW_DAYS,
        )
        problems += oracle.audit_problems(
            report, expected,
            distinct_cap=workload.distinct_cap,
            sketch_capacity=workload.sketch_capacity,
        )
    else:
        if oracle.file_sha256(inputs.rebuilt) != oracle.file_sha256(inputs.csv):
            problems.append("rebuilt file differs from the input")
        plan = json.loads((inputs.out_dir / "plan.json").read_text(encoding="utf-8"))
        actions = [(a["kind"], a["field"]) for a in plan["actions"]]
        if actions != EXPECTED_PLAN:
            problems.append(f"plan actions {actions} != {EXPECTED_PLAN}")
        applied = json.loads((inputs.out_dir / "apply_result.json").read_text(encoding="utf-8"))
        oracle_saved = inputs.csv.stat().st_size - oracle.reduced_bytes(
            inputs.csv,
            removed={f for k, f in EXPECTED_PLAN if k != "encode"},
            encoded={f for k, f in EXPECTED_PLAN if k == "encode"},
        )
        if abs(applied["measured_saved"] - oracle_saved) > 0.01 * oracle_saved:
            problems.append(f"measured savings {applied['measured_saved']} vs oracle {oracle_saved}")
    return problems


def end_to_end(setup_s: float, measured: dict, input_bytes: int) -> dict:
    run_s = statistics.median(measured["times"])
    return {
        "run_s": run_s,
        "mb_per_s": input_bytes / 1e6 / run_s,
        "peak_rss_mb": measured["maxrss_kb"] * 1024 / 1e6,
        "setup_s": setup_s,
    }


def per_layer(measured: dict) -> dict:
    values = {
        name: statistics.median(layer.get(name, 0) for layer in measured["layers"])
        for name in PER_LAYER
    }
    values["ingest.bare_s"] = measured["ingest_bare_s"]
    values["config.load_s"] = measured["config_load_s"]
    values["trace.overhead_s"] = (
        statistics.median(measured["traced_times"]) - statistics.median(measured["times"])
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "odqa" / "pipeline.py").is_file():
        print(f"odqa sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work_dir = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        inputs = workloads.build_inputs(workload, args.seed, work_dir)
        workloads.check_digest(workload, args.seed, inputs.csv)
        setup_s, measured = run_child({
            "src": str(SRC),
            "kind": workload.kind,
            "config": str(inputs.config),
            "rebuilt": str(inputs.rebuilt),
            "seconds": args.seconds,
            "trace": args.trace,
        })
        problems = check_outputs(workload, inputs, measured)
        input_bytes = inputs.csv.stat().st_size
    except (BenchError, InputChanged) as exc:
        print(f"benchmark refused: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for line in measured["errors"] + problems:
        print(line, file=sys.stderr)
    if args.trace:
        values, units = per_layer(measured), PER_LAYER
    else:
        values, units = end_to_end(setup_s, measured, input_bytes), END_TO_END
    print(json.dumps({
        "correct": not problems,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
