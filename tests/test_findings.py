"""FindingSink: severity overrides, room and tally against building every finding."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from odqa.config import load_config
from odqa.findings import Finding, FindingSink, Severity, as_sink, emit_first, make_finding
from odqa.generator import generate_fixture
from odqa.pipeline import run_audit

from conftest import AUDIT_CONFIG_TEMPLATE

RULES = ["negative_duration", "zero_duration", "invalid_value", "missing_key"]
OVERRIDES = [{}, {"zero_duration": Severity.ERROR, "invalid_value": Severity.INFO}]


def finding(rule, row):
    return make_finding(rule, f"row {row}", row_locator=row)


def sink_state(sink):
    return sink.counts, sink.severity_counts, sink.samples


@settings(max_examples=150)
@given(
    batches=st.lists(st.lists(st.sampled_from(RULES), max_size=20), max_size=8),
    cap=st.sampled_from([1, 3, 100]),
    overrides=st.sampled_from(OVERRIDES),
)
def test_room_and_tally_equal_emitting_every_finding(batches, cap, overrides):
    """Each batch flags rows in row order; per rule, emit_first builds only
    what fits the room and tallies the rest."""
    every = FindingSink(cap, overrides)
    capped = FindingSink(cap, overrides)
    built = Counter()

    def lazily(rule, cells):
        for row in cells:
            built[rule] += 1
            yield finding(rule, row)

    row = 0
    for batch in batches:
        by_rule: dict[str, list[int]] = {}
        for rule in batch:
            row += 1
            every.emit(finding(rule, row))
            by_rule.setdefault(rule, []).append(row)
        for rule, cells in by_rule.items():
            emit_first(capped, rule, len(cells), lazily(rule, cells))
    assert sink_state(capped) == sink_state(every)
    for rule in RULES:
        assert built[rule] == min(every.counts.get(rule, 0), cap)


def test_emit_applies_overrides_and_tally_counts_at_the_same_severity():
    sink = FindingSink(2, {"zero_duration": Severity.ERROR})
    sink(finding("zero_duration", 1))
    sink.emit(finding("negative_duration", 2))
    assert sink.room("zero_duration") == 1
    sink.tally("zero_duration", 4)
    assert sink.samples["zero_duration"][0].severity is Severity.ERROR
    assert sink.counts == {"zero_duration": 5, "negative_duration": 1}
    assert sink.severity_counts == {Severity.ERROR: 6}


def test_a_plain_callable_is_handed_every_finding_and_none_keeps_counts_only():
    got = []
    emit_first(as_sink(got.append), "zero_duration", 3, (finding("zero_duration", r) for r in (1, 2, 3)))
    assert [f.row_locator for f in got] == [1, 2, 3]
    quiet = as_sink(None)
    emit_first(quiet, "zero_duration", 3, (finding("zero_duration", r) for r in (1, 2, 3)))
    assert quiet.counts == {"zero_duration": 3} and quiet.samples == {"zero_duration": []}


def test_audit_builds_only_the_findings_the_report_keeps(tmp_path, monkeypatch):
    """A return to building a Finding for every flagged row fails here: the
    fixture flags far more rows than the samples keep."""
    cap = 5
    fx = generate_fixture(tmp_path / "fx", rows=2000, seed=7)
    cfg = tmp_path / "audit.yaml"
    cfg.write_text(AUDIT_CONFIG_TEMPLATE.format(
        input=fx.csv_path, dictionary=fx.dictionary_path, zips=fx.zip_reference_path, out_dir=tmp_path / "out",
    ) + f"sample_cap: {cap}\ntemporal: {{extreme_cutoff_days: 30}}\n", encoding="utf-8")
    built = []
    check = Finding.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(Finding, "__post_init__", counting)
    sink = run_audit(load_config(cfg), write=False).sink
    dataset_level = sum(1 for f in built if f.row_locator is None)
    bound = sum(min(n, cap) for n in sink.counts.values()) + dataset_level
    assert len(built) <= bound
    assert sink.total() > 10 * bound
