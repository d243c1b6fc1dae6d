"""Cross-column redundancy measurement.

Quantifies how much of one column is recoverable from another: blank
mask alignment, exact and normalized match rates, concatenation
templates, and functional dependencies. Rates with an empty denominator
are reported as not-applicable rather than zero, since "never comparable"
and "compared and never equal" are different facts.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass, field as dc_field
from typing import Callable, Mapping

from .errors import ConfigError
from .findings import Measurement, make_finding
from .ingest import Batch, RowConsumer

log = logging.getLogger(__name__)

DUPLICATE_RATE = 1.0
NEAR_DUPLICATE_RATE = 0.85

VERDICT_DUPLICATE = "duplicate"
VERDICT_NEAR = "near_duplicate"
VERDICT_DISTINCT = "distinct"
VERDICT_NA = "not_applicable"


@dataclass(frozen=True)
class PairMatchStats:
    field_a: str
    field_b: str
    rows: int
    both_blank: int
    one_blank: int
    both_present: int
    exact_match: int
    normalized_match: int

    @property
    def rate_both_present(self) -> float | None:
        return None if self.both_present == 0 else self.exact_match / self.both_present

    @property
    def rate_nonblank(self) -> float | None:
        denom = self.rows - self.both_blank
        return None if denom == 0 else self.exact_match / denom

    @property
    def normalized_rate(self) -> float | None:
        return None if self.both_present == 0 else self.normalized_match / self.both_present

    @property
    def blank_masks_equal(self) -> bool:
        return self.one_blank == 0

    def verdict(self, near_threshold: float = NEAR_DUPLICATE_RATE) -> str:
        rate = self.rate_both_present
        if rate is None:
            return VERDICT_NA
        if rate >= DUPLICATE_RATE:
            return VERDICT_DUPLICATE
        if rate >= near_threshold:
            return VERDICT_NEAR
        return VERDICT_DISTINCT

    def as_dict(self) -> dict:
        return {
            "field_a": self.field_a,
            "field_b": self.field_b,
            "rows": self.rows,
            "both_blank": self.both_blank,
            "one_blank": self.one_blank,
            "both_present": self.both_present,
            "exact_match": self.exact_match,
            "normalized_match": self.normalized_match,
            "rate_both_present": self.rate_both_present,
            "rate_nonblank": self.rate_nonblank,
            "normalized_rate": self.normalized_rate,
            "verdict": self.verdict(),
        }


class PairCollector(RowConsumer):
    """Streams any number of column pairs through match counting, one
    distinct value pair of a batch at a time.

    An optional normalizer per pair feeds the normalized match count;
    exact matches count as normalized matches without calling it, which
    both saves time and guarantees exact <= normalized.
    """

    def __init__(
        self,
        pairs: list[tuple[str, str, Callable[[str], str] | None]],
        *,
        emit=None,
    ):
        self._specs = list(pairs)
        self.columns = tuple(name for a, b, _norm in self._specs for name in (a, b))
        self._emit = emit
        # per pair, its counters: rows, both_blank, one_blank, both_present, exact, normalized
        self._counts = [[0, 0, 0, 0, 0, 0] for _ in self._specs]
        self.stats: list[PairMatchStats] = []

    def consume_batch(self, batch: Batch) -> None:
        at = iter(self.indexes)
        for ia, ib, (_a, _b, norm), c in zip(at, at, self._specs, self._counts):
            missing_a = batch.missing(ia)
            missing_b = batch.missing(ib)
            c[0] += len(batch.ordinals)
            for (va, vb), n in Counter(zip(batch.columns[ia], batch.columns[ib])).items():
                if va in missing_a:
                    c[1 if vb in missing_b else 2] += n
                elif vb in missing_b:
                    c[2] += n
                else:
                    c[3] += n
                    if va == vb:
                        c[4] += n
                        c[5] += n
                    elif norm is not None and norm(va) == norm(vb):
                        c[5] += n

    def finish(self) -> list[PairMatchStats]:
        out = []
        for (a, b, _norm), c in zip(self._specs, self._counts):
            stats = PairMatchStats(a, b, c[0], c[1], c[2], c[3], c[4], c[5])
            out.append(stats)
            if self._emit is not None:
                verdict = stats.verdict()
                if verdict in (VERDICT_DUPLICATE, VERDICT_NEAR):
                    rate = stats.rate_both_present
                    self._emit(make_finding(
                        "redundant_pair",
                        f"{a!r} and {b!r} match on {100.0 * rate:.2f}% of co-present rows ({verdict})",
                        fields=(a, b),
                        measured=Measurement(round(rate, 6), "match_rate"),
                    ))
        self.stats = out
        return out


_PLACEHOLDER_RE = re.compile(r"\{[ab]\}")


@dataclass
class ConcatStats:
    target: str
    source_a: str
    source_b: str
    template: str
    rows_considered: int = 0
    matches: int = 0

    @property
    def rate(self) -> float | None:
        return None if self.rows_considered == 0 else self.matches / self.rows_considered

    def as_dict(self) -> dict:
        return {
            "target": self.target,
            "source_a": self.source_a,
            "source_b": self.source_b,
            "template": self.template,
            "rows_considered": self.rows_considered,
            "matches": self.matches,
            "rate": self.rate,
        }


def _validate_template(template: str) -> None:
    found = sorted(_PLACEHOLDER_RE.findall(template))
    if found != ["{a}", "{b}"]:
        raise ConfigError(
            f"concatenation template {template!r} must use each of {{a}} and {{b}} exactly once"
        )


class ConcatChecker(RowConsumer):
    """Tests whether a column is a template rendering of two others."""

    def __init__(
        self,
        target: str,
        source_a: str,
        source_b: str,
        template: str = "({a}, {b})",
    ):
        _validate_template(template)
        self.stats = ConcatStats(target, source_a, source_b, template)
        self.columns = (target, source_a, source_b)
        self._prefix, rest = template.split("{a}", 1)
        self._middle, self._suffix = rest.split("{b}", 1)

    def consume_batch(self, batch: Batch) -> None:
        it, ia, ib = self.indexes
        missing_t = batch.missing(it)
        missing_a = batch.missing(ia)
        missing_b = batch.missing(ib)
        prefix, middle, suffix = self._prefix, self._middle, self._suffix
        s = self.stats
        cols = batch.columns
        for vt, va, vb in zip(cols[it], cols[ia], cols[ib]):
            if vt in missing_t or va in missing_a or vb in missing_b:
                continue
            s.rows_considered += 1
            if vt == f"{prefix}{va}{middle}{vb}{suffix}":
                s.matches += 1

    def finish(self) -> ConcatStats:
        return self.stats


# street suffix abbreviations seen in the wild, expanded to full words
DEFAULT_SUFFIXES: dict[str, str] = {
    "PL": "PLACE",
    "AVE": "AVENUE",
    "ST": "STREET",
    "RD": "ROAD",
    "BLVD": "BOULEVARD",
    "DR": "DRIVE",
    "CT": "COURT",
    "LN": "LANE",
    "PKWY": "PARKWAY",
}

DEFAULT_ORDINAL_WORDS: dict[str, str] = {
    "FIRST": "1", "SECOND": "2", "THIRD": "3", "FOURTH": "4", "FIFTH": "5",
    "SIXTH": "6", "SEVENTH": "7", "EIGHTH": "8", "NINTH": "9", "TENTH": "10",
    "ELEVENTH": "11", "TWELFTH": "12", "THIRTEENTH": "13", "FOURTEENTH": "14",
    "FIFTEENTH": "15", "SIXTEENTH": "16", "SEVENTEENTH": "17",
    "EIGHTEENTH": "18", "NINETEENTH": "19", "TWENTIETH": "20",
}

_NUMERIC_ORDINAL_RE = re.compile(r"([0-9]+)(?:ST|ND|RD|TH)")


class StreetNormalizer:
    """Canonicalizes street spellings: case, spacing, suffixes, ordinals.

    The transform is a fixed point: expansions are never abbreviations,
    ordinal words become digits, digits stay digits, so applying it twice
    equals applying it once.
    """

    def __init__(
        self,
        suffixes: Mapping[str, str] | None = None,
        ordinal_words: Mapping[str, str] | None = None,
    ):
        self._suffixes = dict(DEFAULT_SUFFIXES if suffixes is None else suffixes)
        self._ordinals = dict(DEFAULT_ORDINAL_WORDS if ordinal_words is None else ordinal_words)
        for table in (self._suffixes, self._ordinals):
            for key, value in table.items():
                up = value.upper()
                if up in self._suffixes or up in self._ordinals or _NUMERIC_ORDINAL_RE.fullmatch(up):
                    raise ConfigError(f"normalization {key!r} -> {value!r} is not idempotent")

    def __call__(self, raw: str) -> str:
        out = []
        for token in raw.upper().split():
            m = _NUMERIC_ORDINAL_RE.fullmatch(token)
            if m is not None:
                out.append(m.group(1))
                continue
            replaced = self._suffixes.get(token)
            if replaced is not None:
                out.append(replaced)
                continue
            replaced = self._ordinals.get(token)
            out.append(replaced if replaced is not None else token)
        return " ".join(out)


normalize_street = StreetNormalizer()


@dataclass
class FDResult:
    determinant: str
    dependent: str
    holds: bool = True
    mapping_size: int = 0
    rows_checked: int = 0
    violations: int = 0
    examples: list[tuple[str, str, str]] = dc_field(default_factory=list)

    EXAMPLE_CAP = 10

    def as_dict(self) -> dict:
        return {
            "determinant": self.determinant,
            "dependent": self.dependent,
            "holds": self.holds,
            "mapping_size": self.mapping_size,
            "rows_checked": self.rows_checked,
            "violations": self.violations,
            "examples": [list(e) for e in self.examples],
        }


class FDChecker(RowConsumer):
    """Checks determinant -> dependent over co-present rows."""

    def __init__(self, determinant: str, dependent: str):
        self.result = FDResult(determinant, dependent)
        self.columns = (determinant, dependent)
        self._mapping: dict[str, str] = {}

    def consume_batch(self, batch: Batch) -> None:
        ia, ib = self.indexes
        missing_a = batch.missing(ia)
        missing_b = batch.missing(ib)
        res = self.result
        mapping = self._mapping
        for va, vb in zip(batch.columns[ia], batch.columns[ib]):
            if va in missing_a or vb in missing_b:
                continue
            res.rows_checked += 1
            expected = mapping.get(va)
            if expected is None:
                mapping[va] = vb
            elif expected != vb:
                res.violations += 1
                res.holds = False
                if len(res.examples) < FDResult.EXAMPLE_CAP:
                    res.examples.append((va, expected, vb))

    def finish(self) -> FDResult:
        self.result.mapping_size = len(self._mapping)
        return self.result
