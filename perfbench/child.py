"""One measured run of a workload, in a fresh interpreter.

run.py starts this file with a JSON spec as its only argument and a
fixed PYTHONHASHSEED. It prints `ready` once odqa.pipeline is imported
and the config is loaded (run.py times that as the cold set-up), then
repeats the workload's command sequence for the given seconds and prints
one JSON line of raw measurements. With trace on, it spends the first
half untraced and the second half with spans.Tracer installed.

One operation is one call of run_audit, run_reduce_plan, run_reduce_apply
or reconstruct_table. An audit's exit status 1 only says that findings
reached the threshold, so it counts as success; a raised exception
counts as a failed operation.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path


def round_ops(kind: str, cfg, rebuilt: Path) -> list:
    """The operations of one round; each receives the results before it."""
    from odqa import pipeline, reduce

    if kind == "audit":
        return [lambda done: pipeline.run_audit(cfg)]

    def rebuild(done):
        applied = done[1].apply_result
        reduce.reconstruct_table(
            done[1].plan, applied.main_path, rebuilt,
            sidecar_paths=applied.sidecar_paths,
            dictionary_paths=applied.dictionary_paths,
            key_field=cfg.field_map.key,
        )

    return [
        lambda done: pipeline.run_reduce_plan(cfg),
        lambda done: pipeline.run_reduce_apply(cfg),
        rebuild,
    ]


def run_round(ops: list) -> tuple[list, list[str]]:
    """Attempt every operation; returns results (None where it raised) and errors."""
    done: list = []
    errors: list[str] = []
    for op in ops:
        try:
            done.append(op(done))
        except Exception as exc:  # any raise is one failed operation
            done.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
    return done, errors


def _digest(path: Path) -> str | None:
    if not path.is_file():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _warm(path: Path) -> None:
    with open(path, "rb") as fh:
        while fh.read(1 << 20):
            pass


class Runner:
    def __init__(self, kind: str, cfg, rebuilt: Path):
        self.ops = round_ops(kind, cfg, rebuilt)
        self.out_dir = Path(cfg.out_dir)
        self.rebuilt = rebuilt
        self.attempted = 0
        self.failed = 0
        self.errors: set[str] = set()
        self.report_digests: list[str | None] = []

    def rounds(self, seconds: float, on_round=None) -> list[float]:
        """Whole rounds until `seconds` have passed, and at least two."""
        times: list[float] = []
        deadline = time.perf_counter() + seconds
        while len(times) < 2 or time.perf_counter() < deadline:
            shutil.rmtree(self.out_dir, ignore_errors=True)
            self.rebuilt.unlink(missing_ok=True)
            gc.collect()
            if on_round is not None:
                on_round(None)
            start = time.perf_counter()
            done, errors = run_round(self.ops)
            times.append(time.perf_counter() - start)
            self.attempted += len(self.ops)
            self.failed += len(errors)
            self.errors.update(errors)
            self.report_digests.append(_digest(self.out_dir / "report.json"))
            if on_round is not None:
                on_round(done)
            del done
        return times


def layer_snapshot(tracer, done: list) -> dict:
    """Per-layer values of one traced round."""
    values = dict(tracer.self_s)
    values["ingest.rows"] = tracer.rows
    values["timestamps.parse_calls"] = tracer.calls["timestamps.self_s"]
    values["timestamps.distinct_inputs"] = len(tracer.parse_inputs)
    values["findings.emitted"] = tracer.calls["findings.emit_s"]
    results = [r for r in done if r is not None and hasattr(r, "sink")]
    values["findings.sampled"] = sum(
        len(bucket) for r in results for bucket in r.sink.samples.values()
    )
    profiles = next((r.profiles for r in results if r.profiles), [])
    values["profiling.exact_entries"] = sum(
        len(p.exact_counts) for p in profiles if p.exact_counts is not None
    )
    values["profiling.sketch_columns"] = sum(1 for p in profiles if p.approximate)
    applied = next((r.apply_result for r in results if r.apply_result is not None), None)
    values["reduce.output_bytes"] = 0 if applied is None else (
        applied.bytes_after_main + applied.sidecar_bytes + applied.dictionary_bytes
    )
    return values


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import odqa.pipeline  # noqa: F401 - part of the timed cold set-up
    from odqa.config import load_config

    start = time.perf_counter()
    cfg = load_config(spec["config"])
    load_s = time.perf_counter() - start
    print("ready", flush=True)

    _warm(Path(cfg.input_path))
    runner = Runner(spec["kind"], cfg, Path(spec["rebuilt"]))
    seconds = float(spec["seconds"])
    out: dict = {"config_load_s": load_s}

    if not spec["trace"]:
        out["times"] = runner.rounds(seconds)
        out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        from odqa.ingest import open_table, stream_rows

        from spans import Tracer

        out["times"] = runner.rounds(seconds / 2)
        bare = []
        for _ in range(3):
            t = time.perf_counter()
            stream_rows(open_table(cfg.input_path), [])
            bare.append(time.perf_counter() - t)
        out["ingest_bare_s"] = statistics.median(bare)

        tracer = Tracer()
        tracer.install()
        layers: list[dict] = []

        def on_round(done):
            if done is None:
                tracer.reset()
            else:
                layers.append(layer_snapshot(tracer, done))

        out["traced_times"] = runner.rounds(seconds / 2, on_round)
        out["layers"] = layers

    out.update(
        attempted=runner.attempted,
        failed=runner.failed,
        errors=sorted(runner.errors),
        report_digests=runner.report_digests,
    )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
