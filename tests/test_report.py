"""Report assembly: ordering, determinism, renderings."""

import textwrap

from odqa.findings import Finding, FindingSink, Measurement, Severity, make_finding
from odqa.profiling import ColumnProfile
from odqa.report import (
    EXIT_FINDINGS,
    AuditReport,
    ordered_findings,
    render_markdown,
    render_pairs_csv,
    render_profiles_csv,
)


def test_ordered_findings_rule_then_locator_then_message():
    def f(rule, locator, msg="m"):
        return make_finding(rule, msg, row_locator=locator)

    shuffled = [
        f("zero_duration", None),
        f("negative_duration", "K9"),
        f("negative_duration", 3),
        f("negative_duration", 10),
        f("negative_duration", "K10"),
        f("negative_duration", None, "b"),
        f("negative_duration", None, "a"),
    ]
    got = ordered_findings(shuffled)
    assert [(g.rule_id, g.row_locator, g.message) for g in got] == [
        ("negative_duration", 3, "m"),       # int locators first, numerically
        ("negative_duration", 10, "m"),
        ("negative_duration", "K10", "m"),   # then strings, lexically
        ("negative_duration", "K9", "m"),
        ("negative_duration", None, "a"),    # dataset-level last, by message
        ("negative_duration", None, "b"),
        ("zero_duration", None, "m"),
    ]


def build_report(findings, threshold=Severity.WARNING, sections=None):
    sink = FindingSink(sample_cap=100)
    for f in findings:
        sink.emit(f)
    return AuditReport.build(
        dataset_path="data.csv",
        dataset_sha256="0" * 64,
        byte_size=1234,
        row_count=10,
        delivered_rows=9,
        headers=["a", "b"],
        config_digest="f" * 64,
        command="audit",
        severity_threshold=threshold,
        sink=sink,
        sections=sections or {},
    ), sink


def test_report_counts_and_severity_totals():
    report, sink = build_report([
        make_finding("zero_duration", "z1"),
        make_finding("zero_duration", "z2"),
        make_finding("unobserved_field", "info one"),
    ])
    assert report.counts == {"unobserved_field": 1, "zero_duration": 2}
    assert report.severity_totals == {"info": 1, "warning": 2}
    assert sink.total() == 3
    assert sink.count_at_or_above(Severity.WARNING) == 2
    assert sink.count_at_or_above(Severity.ERROR) == 0


def test_exit_clean_when_below_threshold():
    report, sink = build_report(
        [make_finding("unobserved_field", "quiet")], threshold=Severity.WARNING,
    )
    assert sink.count_at_or_above(report.severity_threshold) == 0
    assert sink.count_at_or_above(Severity.INFO) == 1
    report2, sink2 = build_report([], threshold=Severity.INFO)
    assert sink2.count_at_or_above(report2.severity_threshold) == 0


def test_as_dict_shape_and_sample_ordering():
    report, _ = build_report([
        make_finding("negative_duration", "later", row_locator="K2"),
        make_finding("negative_duration", "earlier", row_locator=5,
                     measured=Measurement(-3600, "seconds"), agency="NYPD"),
    ])
    doc = report.as_dict()
    assert doc["schema_version"] == 1
    assert doc["dataset"]["row_count"] == 10
    assert doc["severity_threshold"] == "warning"
    sample = doc["samples"]["negative_duration"]
    assert [s.get("row_locator") for s in sample] == [5, "K2"]
    assert sample[0]["measured"] == {"value": -3600, "unit": "seconds"}
    assert sample[0]["agency"] == "NYPD"
    assert "agency" not in sample[1]


def test_to_json_is_deterministic():
    findings = [
        make_finding("zero_duration", "z", row_locator=4),
        make_finding("duplicate_key", "dup", row_locator="K1"),
    ]
    a, _ = build_report(findings)
    b, _ = build_report(list(reversed(findings)))
    assert a.to_json() == b.to_json()
    assert a.to_json().endswith("\n")


def test_markdown_rendering_sections():
    report, _ = build_report(
        [make_finding("zero_duration", "zero duration on row 4", row_locator=4)],
        sections={
            "tiers": [{"field": "a", "blank_pct": 12.5, "tier": "sparse"}],
            "concentration": [{"field": "a", "k": 3, "top_k_share": 0.755}],
            "plan": {
                "baseline_bytes": 1000, "estimated_total_saved": 120, "estimated_pct": 12.0,
                "actions": [{
                    "kind": "drop", "field": "b", "lossless": True,
                    "estimated_bytes_saved": 120, "measured_bytes_saved": None,
                }],
            },
        },
    )
    md = render_markdown(report)
    assert "# Data quality audit" in md
    assert "| zero_duration | 1 |" in md
    assert "Totals by severity: warning: 1." in md
    assert "| a | 12.5% | sparse |" in md
    assert "| a | 3 | 75.5% |" in md
    assert "Baseline 1,000 bytes, estimated saving 120 bytes (12.0%)." in md
    assert "| drop | b | lossless | 120 | - |" in md
    assert "### zero_duration (1 total)" in md
    assert "- (warning) [row 4] zero duration on row 4" in md


def test_markdown_no_findings():
    report, _ = build_report([])
    assert "No findings." in render_markdown(report)


def test_profiles_csv_golden(tmp_path):
    profiles = [
        ColumnProfile(field="a", total=10, present=10, missing={}, distinct=4,
                      approximate=False, top_values=[("x", 10)],
                      per_agency_present={}, raw_chars=50),
        ColumnProfile(field="b", total=10, present=1, missing={"empty": 9}, distinct=1,
                      approximate=False, top_values=[("y", 1)],
                      per_agency_present={}, raw_chars=3),
    ]
    out = tmp_path / "profiles.csv"
    render_profiles_csv(profiles, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "field,total,present,blank_pct,tier,distinct"
    assert lines[1] == "a,10,10,0.00,few_none_empty,4"
    assert lines[2] == "b,10,1,90.00,mostly_empty,1"


def test_pairs_csv_golden(tmp_path):
    out = tmp_path / "pairs.csv"
    render_pairs_csv([
        {"field_a": "a", "field_b": "b", "both_present": 8, "exact_match": 8,
         "rate_both_present": 1.0, "verdict": "duplicate"},
        {"field_a": "c", "field_b": "d", "both_present": 0, "exact_match": 0,
         "rate_both_present": None, "verdict": "not_applicable"},
    ], out)
    assert out.read_text(encoding="utf-8") == textwrap.dedent("""\
        field_a,field_b,both_present,exact_match,rate_both_present,verdict
        a,b,8,8,1.000000,duplicate
        c,d,0,0,NA,not_applicable
    """)


def test_full_run_reports_are_byte_identical(tmp_path):
    """Same file, same config: report.json must not vary between runs."""
    from odqa.config import load_config
    from odqa.pipeline import run_audit

    csv_path = tmp_path / "d.csv"
    csv_path.write_text(
        "Unique Key,Created Date,Closed Date,Agency\n"
        "K1,01/05/2023 10:00:00,01/05/2023 09:00:00,NYPD\n"
        "K2,01/05/2023 10:00:00,01/05/2023 10:00:00,DOT\n"
        "K3,01/06/2023 12:00:00,,DOT\n",
        encoding="utf-8",
    )
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(textwrap.dedent(f"""\
        input: {csv_path}
        fields: {{created: created_date, closed: closed_date, agency: agency, key: unique_key}}
        unique: [unique_key]
    """), encoding="utf-8")

    outputs = []
    for run_dir in ("one", "two"):
        cfg = load_config(cfg_path)
        cfg.out_dir = tmp_path / run_dir
        result = run_audit(cfg)
        outputs.append((result.output_paths["report_json"].read_bytes(),
                        result.output_paths["report_md"].read_bytes(),
                        result.exit_status))
    assert outputs[0] == outputs[1]
    assert outputs[0][2] == EXIT_FINDINGS          # the negative duration
