"""Data dictionary loading and conformance checks.

A dictionary is the published description of a dataset: per-field type
class, optional value domain (inline or as a reference-list file), and
required/documented flags. Drift between the dictionary and the observed
file is reported in both directions: fields and values present but never
declared, and declarations never observed.
"""

from __future__ import annotations

import csv
import logging
import re
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Callable, Sequence

from .errors import DictionaryLoadError
from .findings import Finding, Measurement, make_finding
from .ingest import Batch, RawTable, RowConsumer, normalize_header

log = logging.getLogger(__name__)

TYPE_CLASSES = ("text", "categorical", "integer", "decimal", "timestamp", "geo_point")

DICTIONARY_HEADER = ["name", "type_class", "domain", "required", "documented", "domain_ref", "notes"]

EXPERIMENTAL_PREFIX = "computed_region"


@dataclass(frozen=True)
class FieldDescriptor:
    """One documented field. domain and domain_ref are mutually exclusive."""

    name: str
    type_class: str
    domain: tuple[str, ...] | None = None
    domain_ref: str | None = None
    required: bool = False
    documented: bool = True
    notes: str = ""

    def __post_init__(self):
        if self.type_class not in TYPE_CLASSES:
            raise DictionaryLoadError(f"field {self.name!r}: unknown type_class {self.type_class!r}")
        if self.domain is not None and self.domain_ref is not None:
            raise DictionaryLoadError(f"field {self.name!r}: domain and domain_ref are mutually exclusive")


@dataclass
class DataDictionary:
    fields: list[FieldDescriptor]
    source_path: Path | None = None

    def __post_init__(self):
        self.by_name = {f.name: f for f in self.fields}

    def __contains__(self, name: str) -> bool:
        return name in self.by_name

    def get(self, name: str) -> FieldDescriptor | None:
        return self.by_name.get(name)


def _parse_bool(token: str, where: str) -> bool:
    t = token.strip().lower()
    if t in ("yes", "y", "true", "1"):
        return True
    if t in ("no", "n", "false", "0", ""):
        return False
    raise DictionaryLoadError(f"{where}: expected yes/no, got {token!r}")


def load_dictionary(path: str | Path) -> DataDictionary:
    """Load a dictionary CSV; columns are matched by header name.

    Only name and type_class are mandatory columns. Field names are run
    through the same normalization as file headers so the two sides
    always compare in the same namespace. Duplicate names, unknown type
    classes, and rows declaring both domain and domain_ref are load
    errors with the offending row named.
    """
    p = Path(path)
    fields: list[FieldDescriptor] = []
    seen: set[str] = set()
    try:
        fh = open(p, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DictionaryLoadError(f"cannot read dictionary {p}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DictionaryLoadError(f"{p}: empty dictionary file")
        cols = [c.strip().lower() for c in reader.fieldnames]
        if "name" not in cols or "type_class" not in cols:
            raise DictionaryLoadError(f"{p}: header must include name and type_class")
        for lineno, row in enumerate(reader, start=2):
            get = lambda key: (row.get(key) or "").strip()  # noqa: E731
            raw_name = get("name")
            if not raw_name:
                raise DictionaryLoadError(f"{p} line {lineno}: blank field name")
            name = normalize_header(raw_name)
            if name in seen:
                raise DictionaryLoadError(f"{p} line {lineno}: duplicate field {name!r}")
            seen.add(name)
            domain_raw = get("domain")
            domain = tuple(v.strip() for v in domain_raw.split("|") if v.strip()) if domain_raw else None
            domain_ref = get("domain_ref") or None
            try:
                fields.append(FieldDescriptor(
                    name=name,
                    type_class=get("type_class").lower(),
                    domain=domain,
                    domain_ref=domain_ref,
                    required=_parse_bool(get("required"), f"{p} line {lineno} (required)"),
                    documented=_parse_bool(get("documented") or "yes", f"{p} line {lineno} (documented)"),
                    notes=get("notes"),
                ))
            except DictionaryLoadError as exc:
                raise DictionaryLoadError(f"{p} line {lineno}: {exc}") from None
    return DataDictionary(fields, source_path=p)


def save_dictionary(dictionary: DataDictionary, path: str | Path) -> None:
    """Write the canonical 7-column dictionary CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(DICTIONARY_HEADER)
        for f in dictionary.fields:
            w.writerow([
                f.name,
                f.type_class,
                "|".join(f.domain) if f.domain else "",
                "yes" if f.required else "no",
                "yes" if f.documented else "no",
                f.domain_ref or "",
                f.notes,
            ])


def is_experimental(raw_header: str, normalized: str) -> bool:
    return raw_header.startswith("@computed_region") or normalized.startswith(EXPERIMENTAL_PREFIX)


@dataclass
class FieldDrift:
    undocumented: list[str]          # observed, not declared (header order)
    unobserved: list[str]            # declared, not observed (dictionary order)
    experimental: list[str]          # undocumented and tagged experimental


def detect_undocumented(table: RawTable, dictionary: DataDictionary) -> FieldDrift:
    declared = set(dictionary.by_name)
    observed = set(table.headers)
    undocumented = [h for h in table.headers if h not in declared]
    undocumented_set = set(undocumented)
    experimental = [
        h for h, raw in zip(table.headers, table.raw_headers)
        if h in undocumented_set and is_experimental(raw, h)
    ]
    unobserved = [f.name for f in dictionary.fields if f.name not in observed]
    return FieldDrift(undocumented, unobserved, experimental)


@dataclass
class DomainDrift:
    # field -> {value: observed count}
    undeclared: dict[str, dict[str, int]] = dc_field(default_factory=dict)
    # field -> declared values never observed, declaration order
    unobserved_declared: dict[str, list[str]] = dc_field(default_factory=dict)
    skipped_approximate: list[str] = dc_field(default_factory=list)


def check_domains(
    profiles,
    dictionary: DataDictionary,
    *,
    references: dict[str, frozenset[str]] | None = None,
    case_fold: bool = False,
) -> DomainDrift:
    """Compare observed value sets against declared domains.

    profiles is the column-profile list from a completed pass; observed
    values come from its exact value counts, compared after trimming
    (case-folded when case_fold is set). Columns whose profile overflowed
    to a sketch are skipped and listed, since membership needs exact sets.
    references maps field name to a pre-loaded reference set for fields
    declared via domain_ref.
    """
    drift = DomainDrift()
    references = references or {}
    by_field = {p.field: p for p in profiles}
    fold: Callable[[str], str] = (lambda s: s.strip().lower()) if case_fold else (lambda s: s.strip())
    for desc in dictionary.fields:
        declared: Sequence[str] | None = None
        if desc.domain is not None:
            declared = desc.domain
        elif desc.domain_ref is not None and desc.name in references:
            declared = sorted(references[desc.name])
        if declared is None:
            continue
        prof = by_field.get(desc.name)
        if prof is None:
            continue
        if prof.approximate:
            drift.skipped_approximate.append(desc.name)
            continue
        declared_folded = {fold(v) for v in declared}
        observed: dict[str, int] = {}
        for value, count in prof.exact_counts.items():
            key = fold(value)
            observed[key] = observed.get(key, 0) + count
        undeclared = {v: n for v, n in sorted(observed.items()) if v not in declared_folded}
        if undeclared:
            drift.undeclared[desc.name] = undeclared
        missing = [v for v in declared if fold(v) not in observed]
        if missing:
            drift.unobserved_declared[desc.name] = missing
    return drift


_INT_RE = re.compile(r"[+-]?[0-9]+")
_DEC_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)")
_GEO_RE = re.compile(r"\(\s*[+-]?[0-9]+(?:\.[0-9]+)?\s*,\s*[+-]?[0-9]+(?:\.[0-9]+)?\s*\)")


@dataclass
class TypeReport:
    checked: dict[str, int] = dc_field(default_factory=dict)
    violations: dict[str, int] = dc_field(default_factory=dict)
    samples: dict[str, list] = dc_field(default_factory=dict)


_PATTERNS = {"integer": _INT_RE, "decimal": _DEC_RE, "geo_point": _GEO_RE}


class TypeChecker(RowConsumer):
    """Streams declared columns through per-type validators.

    Each distinct present value of a batch is validated once: timestamps
    through the batch's shared parse results, the other checked types by
    a full match of the trimmed value. Missing cells never violate;
    violations are counted per field and surfaced as one aggregated
    Finding per affected field at finish so a systematically mistyped
    column cannot flood the report.
    """

    SAMPLE_CAP = 5

    def __init__(self, dictionary: DataDictionary, *, emit=None):
        self._dictionary = dictionary
        self._emit = emit
        self.report = TypeReport()
        # (column index, field, compiled pattern, or None for a timestamp)
        self._checks: list[tuple[int, str, re.Pattern | None]] = []

    def start(self, table: RawTable) -> None:
        for idx, name in enumerate(table.headers):
            desc = self._dictionary.get(name)
            if desc is None or desc.type_class in ("text", "categorical"):
                continue
            self._checks.append((idx, name, _PATTERNS.get(desc.type_class)))
            self.report.checked[name] = 0
            self.report.violations[name] = 0
            self.report.samples[name] = []

    def consume_batch(self, batch: Batch) -> None:
        rep = self.report
        for idx, name, pattern in self._checks:
            counts = batch.counts(idx)
            absent = batch.missing(idx)
            values = [v for v in counts if v not in absent] if absent else list(counts)
            if pattern is None:
                # a wall epoch of 0 is a valid reading: test for None, not truth
                verdicts = list(map(batch.parsed(idx).wall.get, values))
            else:
                verdicts = list(map(pattern.fullmatch, map(str.strip, values)))
            rep.checked[name] += len(batch.ordinals) - sum(map(counts.__getitem__, absent))
            if None not in verdicts:
                continue
            bad = {v for v, ok in zip(values, verdicts) if ok is None}
            rep.violations[name] += sum(map(counts.__getitem__, bad))
            sample = rep.samples[name]
            if len(sample) == self.SAMPLE_CAP:
                continue
            for locator, v in zip(batch.locators(), batch.columns[idx]):
                if v in bad:
                    sample.append((locator, v))
                    if len(sample) == self.SAMPLE_CAP:
                        break

    def finish(self) -> TypeReport:
        if self._emit is not None:
            for name in self.report.violations:
                n = self.report.violations[name]
                if n:
                    shown = ", ".join(f"{loc}:{val!r}" for loc, val in self.report.samples[name])
                    self._emit(make_finding(
                        "type_violation",
                        f"{n} present value(s) in {name!r} fail its declared type "
                        f"({self._dictionary.by_name[name].type_class}); e.g. {shown}",
                        fields=(name,),
                        measured=Measurement(n, "cells"),
                    ))
        return self.report


def drift_findings(field_drift: FieldDrift, domain_drift: DomainDrift) -> list[Finding]:
    """Render both drift directions as findings, header/declaration order."""
    out: list[Finding] = []
    experimental = set(field_drift.experimental)
    for name in field_drift.undocumented:
        tag = " (experimental region tag)" if name in experimental else ""
        out.append(make_finding(
            "undocumented_field",
            f"field {name!r} appears in the file but not in the dictionary{tag}",
            fields=(name,),
        ))
    for name in field_drift.unobserved:
        out.append(make_finding(
            "unobserved_field",
            f"documented field {name!r} never appears in the file",
            fields=(name,),
        ))
    for field_name, values in domain_drift.undeclared.items():
        for value, count in values.items():
            out.append(make_finding(
                "undeclared_value",
                f"value {value!r} observed {count} time(s) in {field_name!r} but not declared",
                fields=(field_name,),
            ))
    for field_name, values in domain_drift.unobserved_declared.items():
        for value in values:
            out.append(make_finding(
                "unobserved_declared",
                f"declared value {value!r} never observed in {field_name!r}",
                fields=(field_name,),
            ))
    return out
