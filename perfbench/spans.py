"""Per-layer spans, recorded from outside odqa.

`install` wraps each layer's public entry points where their callers
look them up: consumer methods and the timestamp parser and finding sink
on their classes, and the names that odqa.pipeline imported in its own
namespace. A span stack turns nested spans into self times, so parser
time inside a consumer is charged to `timestamps` and emit time to
`findings`, not to the consumer. Names a later version of odqa no longer
has are skipped, and their layer then reads 0.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# (metric prefix, module, classes); consume and finish are wrapped on each
CONSUMER_LAYERS = (
    ("profiling", "odqa.profiling", ("ProfileCollector",)),
    ("dictionary", "odqa.dictionary", ("TypeChecker",)),
    ("temporal", "odqa.temporal", ("DurationAuditor",)),
    ("domain_rules", "odqa.domain_rules",
     ("ReferenceChecker", "GeoBoundsChecker", "UniqueChecker", "PrecisionAuditor")),
    ("redundancy", "odqa.redundancy", ("PairCollector", "ConcatChecker", "FDChecker")),
)
# consume_batch is the batch protocol the ROADMAP plans; wrapping it too keeps
# the consumer layers measured across that change without editing the benchmark
CONSUME_METHODS = ("consume", "consume_batch")

# names looked up in odqa.pipeline's namespace -> metric
PIPELINE_NAMES = {
    "stream_rows": "ingest.self_s",
    "file_sha256": "report.sha256_s",
    "render_json": "report.render_s",
    "render_markdown_file": "report.render_s",
    "render_profiles_csv": "report.render_s",
    "render_pairs_csv": "report.render_s",
    "build_plan": "reduce.plan_s",
    "apply_plan": "reduce.apply_s",
    "detect_undocumented": "dictionary.drift_s",
    "check_domains": "dictionary.drift_s",
    "drift_findings": "dictionary.drift_s",
    # the commands themselves; what they do outside every layer is their self time
    "run_audit": "pipeline.self_s",
    "run_reduce_plan": "pipeline.self_s",
    "run_reduce_apply": "pipeline.self_s",
}


class Tracer:
    """Self time and call count per metric, plus optional per-call notes."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.rows = 0
        self.parse_inputs: set[str] = set()
        self._stack: list[list[float]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.rows = 0
        self.parse_inputs = set()

    def wrap(self, metric: str, fn, note=None):
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[metric] += elapsed - frame[0]
                calls[metric] += 1
                if stack:
                    stack[-1][0] += elapsed
            if note is not None:
                note(args, result)
            return result

        return traced

    def _note_parse(self, args, _result) -> None:
        self.parse_inputs.add(args[1])

    def _note_stream(self, _args, result) -> None:
        self.rows += getattr(result, "row_count", 0)

    def _patch(self, owner, name: str, metric: str, note=None) -> None:
        """Replace owner.name (a class or module attribute) with a traced version."""
        fn = vars(owner).get(name)
        if fn is None:
            return
        if isinstance(fn, classmethod):
            setattr(owner, name, classmethod(self.wrap(metric, fn.__func__, note)))
        else:
            setattr(owner, name, self.wrap(metric, fn, note))

    def install(self) -> None:
        import importlib

        from odqa import findings, pipeline, reduce, report, timestamps

        for prefix, module_name, class_names in CONSUMER_LAYERS:
            module = importlib.import_module(module_name)
            finish_metric = f"{prefix}.consume_s" if prefix == "dictionary" else f"{prefix}.finish_s"
            for cls in filter(None, (vars(module).get(name) for name in class_names)):
                for method in CONSUME_METHODS:
                    self._patch(cls, method, f"{prefix}.consume_s")
                self._patch(cls, "finish", finish_metric)

        self._patch(timestamps.TimestampParser, "__call__", "timestamps.self_s", self._note_parse)
        self._patch(findings.FindingSink, "emit", "findings.emit_s")
        self._patch(report.AuditReport, "build", "report.build_s")
        for name, metric in PIPELINE_NAMES.items():
            self._patch(pipeline, name, metric, self._note_stream if name == "stream_rows" else None)
        self._patch(reduce, "reconstruct_table", "reduce.rebuild_s")
