"""Report assembly and rendering.

A report is a pure function of input bytes and config: no wall-clock
timestamps, no environment details, keys sorted, floats carried at full
repr. Two runs over the same file with the same config must produce
byte-identical JSON, which is what lets a report diff stand in for a
data diff. Markdown and CSV renderings are projections of the same
structure for humans and spreadsheets.
"""

from __future__ import annotations

import io
import json
import logging
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .findings import Finding, FindingSink, Severity
from .profiling import ColumnProfile

log = logging.getLogger(__name__)

REPORT_SCHEMA_VERSION = 1

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_FATAL = 2


def _locator_sort_key(f: Finding):
    loc = f.row_locator
    if loc is None:
        return (2, 0, "")
    if isinstance(loc, int):
        return (0, loc, "")
    return (1, 0, str(loc))


def ordered_findings(findings: list[Finding]) -> list[Finding]:
    """Catalog order: rule id ascending, then row locator, then message."""
    return sorted(findings, key=lambda f: (f.rule_id, _locator_sort_key(f), f.message))


@dataclass
class AuditReport:
    dataset_path: str
    dataset_sha256: str
    byte_size: int
    row_count: int
    delivered_rows: int
    headers: list[str]
    config_digest: str
    command: str
    severity_threshold: Severity
    counts: dict[str, int]
    severity_totals: dict[str, int]
    samples: dict[str, list[Finding]]
    sections: dict = dc_field(default_factory=dict)

    @classmethod
    def build(
        cls,
        *,
        dataset_path: str,
        dataset_sha256: str,
        byte_size: int,
        row_count: int,
        delivered_rows: int,
        headers: list[str],
        config_digest: str,
        command: str,
        severity_threshold: Severity,
        sink: FindingSink,
        sections: dict,
    ) -> "AuditReport":
        counts = {rule: sink.counts[rule] for rule in sorted(sink.counts)}
        samples = {rule: ordered_findings(sink.samples[rule]) for rule in sorted(sink.samples)}
        severity_totals = {
            sev.label: sink.severity_counts.get(sev, 0)
            for sev in (Severity.INFO, Severity.WARNING, Severity.ERROR)
            if sink.severity_counts.get(sev, 0)
        }
        return cls(
            dataset_path=dataset_path,
            dataset_sha256=dataset_sha256,
            byte_size=byte_size,
            row_count=row_count,
            delivered_rows=delivered_rows,
            headers=list(headers),
            config_digest=config_digest,
            command=command,
            severity_threshold=severity_threshold,
            counts=counts,
            severity_totals=severity_totals,
            samples=samples,
            sections=sections,
        )

    def as_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "command": self.command,
            "dataset": {
                "path": self.dataset_path,
                "sha256": self.dataset_sha256,
                "byte_size": self.byte_size,
                "row_count": self.row_count,
                "delivered_rows": self.delivered_rows,
                "headers": list(self.headers),
            },
            "config_digest": self.config_digest,
            "severity_threshold": self.severity_threshold.label,
            "finding_counts": self.counts,
            "severity_totals": self.severity_totals,
            "samples": {rule: [f.as_dict() for f in fs] for rule, fs in self.samples.items()},
            "sections": self.sections,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def render_json(report: AuditReport, path: str | Path) -> None:
    Path(path).write_text(report.to_json(), encoding="utf-8")


def _md_table(headers: list[str], rows: list[list]) -> str:
    out = ["| " + " | ".join(headers) + " |", "|" + "|".join(" --- " for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out)


def _fmt_rate(rate: float | None, digits: int = 2) -> str:
    return "NA" if rate is None else f"{100.0 * rate:.{digits}f}%"


def render_markdown(report: AuditReport) -> str:
    md = io.StringIO()
    w = md.write
    w("# Data quality audit\n\n")
    w(f"- **Command**: `{report.command}`\n")
    w(f"- **Dataset**: `{report.dataset_path}`\n")
    w(f"- **SHA-256**: `{report.dataset_sha256}`\n")
    w(f"- **Size**: {report.byte_size:,} bytes, {report.row_count:,} rows "
      f"({report.delivered_rows:,} delivered)\n")
    w(f"- **Config digest**: `{report.config_digest}`\n")
    w(f"- **Severity threshold**: {report.severity_threshold.label}\n\n")

    w("## Findings\n\n")
    if not report.counts:
        w("No findings.\n\n")
    else:
        rows = [[rule, n] for rule, n in sorted(report.counts.items(), key=lambda kv: (-kv[1], kv[0]))]
        w(_md_table(["rule", "count"], rows))
        w("\n\n")
        by_sev = ", ".join(f"{label}: {n}" for label, n in report.severity_totals.items())
        w(f"Totals by severity: {by_sev}.\n\n")

    sections = report.sections

    tiers = sections.get("tiers")
    if tiers:
        w("## Missingness tiers\n\n")
        rows = [[t["field"], f"{t['blank_pct']:.1f}%", t["tier"]] for t in tiers]
        w(_md_table(["field", "blank", "tier"], rows))
        w("\n\n")

    conc = sections.get("concentration")
    if conc:
        w("## Concentration\n\n")
        rows = [
            [c["field"], c["k"], f"{100.0 * c['top_k_share']:.1f}%"]
            for c in conc
        ]
        w(_md_table(["field", "top k", "share"], rows))
        w("\n\n")

    temporal = sections.get("temporal")
    if temporal:
        w("## Temporal\n\n")
        d = temporal["durations"]
        w(f"- Durations measured: {d['count']:,} (negative {d['negative']:,}, zero {d['zero']:,}, "
          f"beyond cutoff {d['extreme']:,})\n")
        w(f"- Sentinel-dated rows: {d['sentinel_rows']:,} "
          f"(also negative: {d['sentinel_and_negative']:,})\n")
        w(f"- DST-explainable negatives: {d['dst_explainable_negatives']:,}; "
          f"gap-invalid pairs: {d['gap_pairs']:,}\n")
        if d["min_days"] is not None:
            w(f"- Duration range: {d['min_days']:.2f} to {d['max_days']:.2f} days\n")
        m = temporal["midnight"]
        w(f"- Exact-midnight readings: {m['count']:,}\n")
        if m["by_agency"]:
            top = sorted(m["by_agency"].items(), key=lambda kv: (-kv[1], kv[0]))[:6]
            w("  - " + ", ".join(f"{a}: {n:,}" for a, n in top) + "\n")
        pc = temporal["post_close"]
        w(f"- Post-close updates: {pc['late']:,} beyond the window of {pc['pairs_checked']:,} checked "
          f"({pc['infeasible']:,} infeasible excluded)\n\n")
        for field_name, spike in temporal["spikes"].items():
            if not spike.get("evaluated"):
                w(f"### On-the-hour profile: {field_name}\n\nnot evaluated "
                  f"({spike['parsed']:,} parsed readings)\n\n")
                continue
            w(f"### On-the-hour profile: {field_name}\n\n")
            w(f"mean {spike['mean']:.1f}, sigma {spike['sigma']:.1f}, "
              f"threshold {spike['threshold']:.1f}, flagged hours: "
              f"{spike['flagged_hours'] if spike['flagged_hours'] else 'none'}\n\n")
            rows = [[f"{h:02d}:00", n] for h, n in enumerate(spike["histogram"]) if n]
            if rows:
                w(_md_table(["hour", "on-the-hour count"], rows))
                w("\n\n")

    dictionary = sections.get("dictionary")
    if dictionary:
        w("## Dictionary drift\n\n")
        w(f"- Undocumented fields: {len(dictionary['undocumented_fields'])} "
          f"({len(dictionary['experimental_fields'])} experimental)\n")
        w(f"- Documented but unobserved fields: {len(dictionary['unobserved_fields'])}\n")
        und = dictionary["undeclared_values"]
        uno = dictionary["unobserved_declared"]
        w(f"- Fields with undeclared values: {len(und)}; "
          f"fields with unobserved declared values: {len(uno)}\n")
        tv = dictionary.get("type_violations", {})
        bad = {k: v for k, v in tv.items() if v}
        if bad:
            w(f"- Type violations: " + ", ".join(f"{k}: {v:,}" for k, v in sorted(bad.items())) + "\n")
        w("\n")

    domain = sections.get("domain")
    if domain:
        w("## Domain checks\n\n")
        for ref in domain.get("references", []):
            w(f"- `{ref['field']}`: {ref['invalid']:,} of {ref['checked']:,} present values "
              f"outside the reference set ({_fmt_rate(ref['invalid_rate'])})\n")
        geo = domain.get("geo")
        if geo:
            w(f"- Coordinates: {geo['out_of_bounds']:,} of {geo['pairs_checked']:,} pairs "
              f"out of bounds ({geo['unparsed']:,} unparseable)\n")
        for pr in domain.get("precision", []):
            w(f"- `{pr['field']}`: {pr['flagged']:,} values beyond {pr['max_decimals']} decimals "
              f"(max seen {pr['max_decimals_seen']})\n")
        for uq in domain.get("unique", []):
            w(f"- `{uq['field']}`: {uq['duplicate_values']:,} duplicated value(s) across "
              f"{uq['duplicate_rows']:,} rows; {uq['missing']:,} blank\n")
        w("\n")

    redundancy = sections.get("redundancy")
    if redundancy:
        w("## Redundancy\n\n")
        pairs = redundancy.get("pairs", [])
        if pairs:
            rows = [
                [p["field_a"], p["field_b"], p["both_present"],
                 _fmt_rate(p["rate_both_present"]), p["verdict"]]
                for p in pairs
            ]
            w(_md_table(["a", "b", "co-present", "match", "verdict"], rows))
            w("\n\n")
        for c in redundancy.get("concat", []):
            w(f"- `{c['target']}` matches `{c['template']}` of "
              f"(`{c['source_a']}`, `{c['source_b']}`) on {_fmt_rate(c['rate'])} "
              f"of {c['rows_considered']:,} rows\n")
        for f in redundancy.get("fd", []):
            state = "holds" if f["holds"] else f"violated {f['violations']:,} times"
            w(f"- `{f['determinant']}` determines `{f['dependent']}`: {state} "
              f"({f['mapping_size']:,} mappings)\n")
        w("\n")

    plan = sections.get("plan")
    if plan:
        w("## Reduction plan\n\n")
        w(f"Baseline {plan['baseline_bytes']:,} bytes, estimated saving "
          f"{plan['estimated_total_saved']:,} bytes ({plan['estimated_pct']:.1f}%).\n\n")
        rows = []
        for a in plan["actions"]:
            measured = a.get("measured_bytes_saved")
            rows.append([
                a["kind"], a["field"],
                "lossless" if a["lossless"] else "LOSSY",
                f"{a['estimated_bytes_saved']:,}",
                "-" if measured is None else f"{measured:,}",
            ])
        w(_md_table(["action", "field", "safety", "est. bytes", "measured"], rows))
        w("\n\n")

    samples_printed = False
    for rule, findings in report.samples.items():
        if not findings:
            continue
        shown = findings[:5]
        if not samples_printed:
            w("## Finding samples\n\n")
            samples_printed = True
        w(f"### {rule} ({report.counts.get(rule, 0):,} total)\n\n")
        for f in shown:
            loc = "" if f.row_locator is None else f" [row {f.row_locator}]"
            w(f"- ({f.severity.label}){loc} {f.message}\n")
        w("\n")
    return md.getvalue()


def render_markdown_file(report: AuditReport, path: str | Path) -> None:
    Path(path).write_text(render_markdown(report), encoding="utf-8")


def render_profiles_csv(profiles: list[ColumnProfile], path: str | Path) -> None:
    """Fixed header: field,total,present,blank_pct,tier,distinct."""
    lines = ["field,total,present,blank_pct,tier,distinct"]
    for p in profiles:
        row = (p.field, p.total, p.present, f"{p.blank_pct:.2f}", p.tier, p.distinct)
        lines.append(",".join(str(c) for c in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def render_pairs_csv(pair_dicts: list[dict], path: str | Path) -> None:
    """Fixed header: field_a,field_b,both_present,exact_match,rate_both_present,verdict."""
    lines = ["field_a,field_b,both_present,exact_match,rate_both_present,verdict"]
    for p in pair_dicts:
        rate = p["rate_both_present"]
        lines.append(",".join([
            p["field_a"], p["field_b"], str(p["both_present"]), str(p["exact_match"]),
            "NA" if rate is None else f"{rate:.6f}", p["verdict"],
        ]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

