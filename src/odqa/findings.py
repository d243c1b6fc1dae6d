"""Finding records and the rule catalog.

Every check in the package reports problems as Finding values tied to a
rule id from the catalog below. Keeping the catalog in one place means a
report can never contain a misspelled rule, and severity policy can be
overridden per rule from config without touching the emitting code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """Ordered severity levels; comparisons follow the numeric order."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @classmethod
    def parse(cls, token: str) -> "Severity":
        try:
            return cls[token.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown severity {token!r}; expected info, warning, or error") from None

    @property
    def label(self) -> str:
        return self.name.lower()


# rule id -> (default severity, one-line description)
RULE_CATALOG: dict[str, tuple[Severity, str]] = {
    # structural / ingest
    "unnamed_column": (Severity.ERROR, "header cell empty after normalization"),
    "header_collision": (Severity.WARNING, "two headers normalized to the same name"),
    "ragged_row": (Severity.ERROR, "row cell count differs from header width"),
    "malformed_quoting": (Severity.ERROR, "row could not be parsed under RFC 4180 quoting"),
    "unparseable_timestamp": (Severity.WARNING, "present value matched no configured timestamp format"),
    # dictionary conformance
    "undocumented_field": (Severity.WARNING, "observed field missing from the data dictionary"),
    "unobserved_field": (Severity.INFO, "documented field absent from the file"),
    "undeclared_value": (Severity.WARNING, "observed value outside the declared domain"),
    "unobserved_declared": (Severity.INFO, "declared domain value never observed"),
    "type_violation": (Severity.ERROR, "present value failed its declared type class"),
    "reference_unreadable": (Severity.ERROR, "domain reference file missing or unreadable"),
    # profiling
    "agency_field_missing": (Severity.WARNING, "configured agency attribution field not in header"),
    "approximate_profile": (Severity.INFO, "distinct cap exceeded; top values come from a merge-and-prune sketch"),
    "mostly_empty_field": (Severity.INFO, "field sits in the mostly-empty missingness tier"),
    # temporal
    "negative_duration": (Severity.ERROR, "closed timestamp precedes created timestamp"),
    "zero_duration": (Severity.WARNING, "created and closed timestamps equal to the second"),
    "sentinel_date": (Severity.ERROR, "timestamp carries a known placeholder date"),
    "extreme_duration": (Severity.WARNING, "absolute duration beyond the plausibility cutoff"),
    "dst_gap_invalid": (Severity.WARNING, "local timestamp falls inside a spring-forward gap"),
    "hour_spike": (Severity.WARNING, "on-the-hour volume exceeds the sigma threshold"),
    "midnight_batch_suspect": (Severity.WARNING, "hour-zero spike consistent with batch backfill"),
    "post_close_update": (Severity.WARNING, "resolution updated after close beyond the window"),
    "post_close_infeasible": (Severity.WARNING, "update lag beyond the plausibility cutoff"),
    "insufficient_data": (Severity.WARNING, "too few parsed timestamps for spike statistics"),
    # domain rules
    "invalid_value": (Severity.ERROR, "present value not in the reference set"),
    "geo_out_of_bounds": (Severity.ERROR, "coordinate pair outside the configured bounding box"),
    "duplicate_key": (Severity.ERROR, "value repeated in a declared-unique field"),
    "missing_key": (Severity.ERROR, "required unique field blank"),
    "precision_flag": (Severity.WARNING, "decimal digits beyond the plausible precision bound"),
    # redundancy and reduction
    "redundant_pair": (Severity.INFO, "column pair verdict duplicate or near-duplicate"),
    "encode_refused": (Severity.WARNING, "encode action skipped (cap exceeded or no byte gain)"),
}


@dataclass(frozen=True, slots=True)
class Measurement:
    """A measured quantity attached to a finding, with its unit."""

    value: float
    unit: str

    def as_dict(self) -> dict:
        return {"value": self.value, "unit": self.unit}


@dataclass(frozen=True, slots=True)
class Finding:
    """One detected problem.

    row_locator is the row's unique key when one is configured, else the
    1-based data row ordinal, else None for dataset-level findings.
    """

    rule_id: str
    severity: Severity
    message: str
    fields: tuple[str, ...] = ()
    row_locator: str | int | None = None
    measured: Measurement | None = None
    agency: str | None = None

    def __post_init__(self) -> None:
        if self.rule_id not in RULE_CATALOG:
            raise ValueError(f"unknown rule id {self.rule_id!r}")

    def with_severity(self, severity: Severity) -> "Finding":
        if severity == self.severity:
            return self
        return Finding(
            rule_id=self.rule_id,
            severity=severity,
            message=self.message,
            fields=self.fields,
            row_locator=self.row_locator,
            measured=self.measured,
            agency=self.agency,
        )

    def as_dict(self) -> dict:
        out: dict = {
            "rule_id": self.rule_id,
            "severity": self.severity.label,
            "message": self.message,
            "fields": list(self.fields),
        }
        if self.row_locator is not None:
            out["row_locator"] = self.row_locator
        if self.measured is not None:
            out["measured"] = self.measured.as_dict()
        if self.agency is not None:
            out["agency"] = self.agency
        return out


def make_finding(
    rule_id: str,
    message: str,
    *,
    fields: tuple[str, ...] = (),
    row_locator: str | int | None = None,
    measured: Measurement | None = None,
    agency: str | None = None,
    severity: Severity | None = None,
) -> Finding:
    """Build a Finding with the catalog's default severity unless overridden."""
    if severity is None:
        try:
            severity = RULE_CATALOG[rule_id][0]
        except KeyError:
            raise ValueError(f"unknown rule id {rule_id!r}") from None
    return Finding(
        rule_id=rule_id,
        severity=severity,
        message=message,
        fields=fields,
        row_locator=row_locator,
        measured=measured,
        agency=agency,
    )


def apply_severity_overrides(finding: Finding, overrides: dict[str, Severity]) -> Finding:
    new = overrides.get(finding.rule_id)
    return finding if new is None else finding.with_severity(new)


@dataclass
class FindingSink:
    """Incremental aggregator: exact per-rule counts plus a capped sample.

    Samples keep the first `sample_cap` findings per rule in arrival order,
    which for streaming checks is row order, so two runs over the same
    input retain identical samples.
    """

    sample_cap: int = 100
    counts: dict[str, int] = field(default_factory=dict)
    samples: dict[str, list[Finding]] = field(default_factory=dict)
    severity_counts: dict[Severity, int] = field(default_factory=dict)

    def emit(self, finding: Finding) -> None:
        rid = finding.rule_id
        self.counts[rid] = self.counts.get(rid, 0) + 1
        bucket = self.samples.setdefault(rid, [])
        if len(bucket) < self.sample_cap:
            bucket.append(finding)
        sev = finding.severity
        self.severity_counts[sev] = self.severity_counts.get(sev, 0) + 1

    def count_at_or_above(self, threshold: Severity) -> int:
        return sum(n for sev, n in self.severity_counts.items() if sev >= threshold)

    def total(self) -> int:
        return sum(self.counts.values())
