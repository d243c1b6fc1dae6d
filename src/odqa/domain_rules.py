"""Reference sets, geographic bounds, key uniqueness, and precision.

These checks catch values that are syntactically fine but semantically
impossible: a zip code no post office issues, a coordinate out in the
harbor, a supposedly unique key that repeats, a coordinate printed to
nanometer precision. Reference sets are plain newline-delimited token
files so domain owners can maintain them without tooling.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from dataclasses import dataclass, field as dc_field
from itertools import filterfalse, repeat
from operator import sub
from pathlib import Path
from typing import Mapping, Sequence

from .errors import ConfigError
from .findings import Measurement, make_finding
from .ingest import Batch, RowConsumer

log = logging.getLogger(__name__)

# NYC bounding box, inclusive on both ends
DEFAULT_LAT_MIN, DEFAULT_LAT_MAX = 40.49, 40.92
DEFAULT_LON_MIN, DEFAULT_LON_MAX = -74.27, -73.68

DEFAULT_MAX_DECIMALS = 6


def load_reference(path: str | Path) -> frozenset[str]:
    """Load a newline-delimited reference list.

    Lines are trimmed; blanks and lines starting with "#" are skipped.
    An empty result is a configuration error, not an empty domain.
    """
    p = Path(path)
    tokens: set[str] = set()
    try:
        with open(p, encoding="utf-8") as fh:
            for line in fh:
                token = line.strip()
                if not token or token.startswith("#"):
                    continue
                tokens.add(token)
    except OSError as exc:
        raise ConfigError(f"cannot read reference list {p}: {exc}") from exc
    if not tokens:
        raise ConfigError(f"reference list {p} contains no tokens")
    return frozenset(tokens)


@dataclass
class MembershipResult:
    field: str
    checked: int = 0
    invalid: int = 0
    invalid_values: dict[str, int] = dc_field(default_factory=dict)
    by_agency_invalid: dict[str, int] = dc_field(default_factory=dict)

    @property
    def invalid_rate(self) -> float | None:
        return None if self.checked == 0 else self.invalid / self.checked

    def top_invalid(self, k: int = 10) -> list[tuple[str, int]]:
        return sorted(self.invalid_values.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


class ReferenceChecker(RowConsumer):
    """Flags present values outside each field's reference set, one finding each.

    One checker serves every reference field, so its invalid_value
    findings arrive in row order, fields in the given order within a row.
    Each distinct value of a batch is looked up once.
    """

    def __init__(
        self,
        references: Mapping[str, frozenset[str]],
        *,
        emit=None,
    ):
        self.references = dict(references)
        self.columns = tuple(self.references)
        self._emit = emit if emit is not None else (lambda f: None)
        self.results = {f: MembershipResult(f) for f in self.references}

    def consume_batch(self, batch: Batch) -> None:
        flagged = []
        for idx, reference, res in zip(self.indexes, self.references.values(), self.results.values()):
            counts = batch.counts(idx)
            absent = batch.missing(idx)
            res.checked += len(batch.ordinals) - sum(map(counts.__getitem__, absent))
            bad = counts.keys() - reference - absent.keys()
            if bad:
                flagged.append((batch.columns[idx], bad, res))
        if not flagged:
            return
        locators, agencies = batch.locators(), batch.agencies()
        for n, locator in enumerate(locators):
            for column, bad, res in flagged:
                v = column[n]
                if v not in bad:
                    continue
                res.invalid += 1
                res.invalid_values[v] = res.invalid_values.get(v, 0) + 1
                agency = None if agencies is None else agencies[n]
                if agency is not None:
                    res.by_agency_invalid[agency] = res.by_agency_invalid.get(agency, 0) + 1
                self._emit(make_finding(
                    "invalid_value",
                    f"{res.field!r} value {v!r} is not in the reference set",
                    fields=(res.field,),
                    row_locator=locator,
                    agency=agency,
                ))

    def finish(self) -> dict[str, MembershipResult]:
        return self.results


@dataclass(frozen=True)
class GeoBounds:
    lat_min: float = DEFAULT_LAT_MIN
    lat_max: float = DEFAULT_LAT_MAX
    lon_min: float = DEFAULT_LON_MIN
    lon_max: float = DEFAULT_LON_MAX

    def __post_init__(self):
        if self.lat_min > self.lat_max or self.lon_min > self.lon_max:
            raise ConfigError("geo bounds: min exceeds max")

    def contains(self, lat: float, lon: float) -> bool:
        return self.lat_min <= lat <= self.lat_max and self.lon_min <= lon <= self.lon_max


@dataclass
class GeoResult:
    pairs_checked: int = 0
    out_of_bounds: int = 0
    unparsed: int = 0


class GeoBoundsChecker(RowConsumer):
    """Checks coordinate pairs against a closed bounding box.

    Values that do not parse as finite decimals (nan and +-inf on either
    side included) are counted as unparsed and skipped here; they surface
    as type violations through the dictionary check, not as bounds
    findings.
    """

    def __init__(
        self,
        lat_field: str,
        lon_field: str,
        bounds: GeoBounds = GeoBounds(),
        *,
        emit=None,
    ):
        self.lat_field = lat_field
        self.lon_field = lon_field
        self.columns = (lat_field, lon_field)
        self.bounds = bounds
        self._emit = emit if emit is not None else (lambda f: None)
        self.result = GeoResult()

    def consume_batch(self, batch: Batch) -> None:
        ilat, ilon = self.indexes
        missing_lat = batch.missing(ilat)
        missing_lon = batch.missing(ilon)
        res = self.result
        agencies = batch.agencies()
        for n, (raw_lat, raw_lon) in enumerate(zip(batch.columns[ilat], batch.columns[ilon])):
            if raw_lat in missing_lat or raw_lon in missing_lon:
                continue
            try:
                lat, lon = float(raw_lat), float(raw_lon)
            except ValueError:
                lat = lon = math.nan
            if not (math.isfinite(lat) and math.isfinite(lon)):
                res.unparsed += 1
                continue
            res.pairs_checked += 1
            if self.bounds.contains(lat, lon):
                continue
            res.out_of_bounds += 1
            self._emit(make_finding(
                "geo_out_of_bounds",
                f"({raw_lat}, {raw_lon}) falls outside "
                f"[{self.bounds.lat_min}, {self.bounds.lat_max}] x "
                f"[{self.bounds.lon_min}, {self.bounds.lon_max}]",
                fields=(self.lat_field, self.lon_field),
                row_locator=batch.locators()[n],
                agency=None if agencies is None else agencies[n],
            ))

    def finish(self) -> GeoResult:
        return self.result


@dataclass
class UniqueResult:
    field: str
    total_present: int = 0
    missing: int = 0
    duplicate_values: int = 0
    duplicate_rows: int = 0


class UniqueChecker(RowConsumer):
    """Detects repeated values in declared-unique columns.

    specs lists (field, required) pairs; one checker serves all of them,
    so its missing_key findings arrive in row order, specs in the given
    order within a row. One Finding per duplicated value, listing every
    locator it appears at. When a field is required, blank cells are
    violations too.
    """

    LOCATOR_CAP = 20

    def __init__(
        self,
        specs: Sequence[tuple[str, bool]],
        *,
        emit=None,
    ):
        self.specs = list(specs)
        self.columns = tuple(f for f, _ in self.specs)
        self._emit = emit if emit is not None else (lambda f: None)
        self.results = [UniqueResult(f) for f, _ in self.specs]
        # per spec: required, result, first ordinal of each value, ordinals of each duplicate
        self._state = [(required, res, {}, {}) for (_f, required), res in zip(self.specs, self.results)]

    def consume_batch(self, batch: Batch) -> None:
        ordinals = batch.ordinals
        slow = []
        for idx, state in zip(self.indexes, self._state):
            _required, res, first_seen, _dups = state
            column = batch.columns[idx]
            counts = batch.counts(idx)
            if (len(counts) == len(column) and not batch.missing(idx)
                    and first_seen.keys().isdisjoint(counts)):
                first_seen.update(zip(column, ordinals))
                res.total_present += len(column)
            else:
                slow.append((column, batch.missing(idx), state))
        for n, ordinal in enumerate(ordinals):
            for column, absent, (required, res, first_seen, dups) in slow:
                v = column[n]
                if v in absent:
                    res.missing += 1
                    if required:
                        self._emit(make_finding(
                            "missing_key",
                            f"required unique field {res.field!r} is blank",
                            fields=(res.field,),
                            row_locator=ordinal,
                        ))
                    continue
                res.total_present += 1
                first = first_seen.get(v)
                if first is None:
                    first_seen[v] = ordinal
                    continue
                bucket = dups.get(v)
                if bucket is None:
                    dups[v] = [first, ordinal]
                elif len(bucket) < self.LOCATOR_CAP:
                    bucket.append(ordinal)
                else:
                    bucket.append(-1)  # sentinel: more beyond the cap

    def finish(self) -> list[UniqueResult]:
        for _required, res, _first_seen, dups in self._state:
            res.duplicate_values = len(dups)
            for value, ordinals in dups.items():
                overflow = ordinals.count(-1)
                shown = [o for o in ordinals if o != -1]
                occurrences = len(ordinals)
                res.duplicate_rows += occurrences
                where = ", ".join(str(o) for o in shown)
                if overflow:
                    where += f", and {overflow} more"
                self._emit(make_finding(
                    "duplicate_key",
                    f"{res.field!r} value {value!r} appears {occurrences} times (rows {where})",
                    fields=(res.field,),
                    row_locator=shown[0],
                    measured=Measurement(occurrences, "occurrences"),
                ))
        return self.results


_DECIMAL_TEXT_RE = re.compile(r"[+-]?[0-9]+(?:\.([0-9]+))?")


def decimal_digits(raw: str) -> int | None:
    """Fractional digit count of a plain decimal literal, else None.

    Exponent forms and anything non-numeric return None; an integer
    literal returns 0. The count reflects the text itself, not any float
    the text might round to.
    """
    m = _DECIMAL_TEXT_RE.fullmatch(raw.strip())
    if m is None:
        return None
    frac = m.group(1)
    return len(frac) if frac else 0


@dataclass
class PrecisionAudit:
    field: str
    histogram: dict[int, int] = dc_field(default_factory=dict)
    flagged: int = 0
    non_decimal: int = 0
    max_decimals_seen: int = 0


class PrecisionAuditor(RowConsumer):
    """Histograms textual decimal precision for configured fields, a
    batch column at a time: one C-level regex full match per present
    cell, the fraction's length read off the match (decimal_digits is
    the per-value reference).

    Emits one aggregated Finding per field whose values exceed the
    plausible digit bound; per-row findings would just repeat the same
    systemic fact millions of times.
    """

    def __init__(
        self,
        fields: list[str],
        max_decimals: int = DEFAULT_MAX_DECIMALS,
        *,
        emit=None,
    ):
        self.fields = list(fields)
        self.columns = tuple(self.fields)
        if twice := [f for i, f in enumerate(self.fields) if f in self.fields[:i]]:
            raise ValueError(f"precision audit: field {twice[0]!r} listed twice")
        self.max_decimals = max_decimals
        self._emit = emit if emit is not None else (lambda f: None)
        self.results: dict[str, PrecisionAudit] = {f: PrecisionAudit(f) for f in self.fields}

    def consume_batch(self, batch: Batch) -> None:
        for idx, audit in zip(self.indexes, self.results.values()):
            present = filterfalse(batch.missing(idx).__contains__, batch.columns[idx])
            matches = list(map(_DECIMAL_TEXT_RE.fullmatch, map(str.strip, present)))
            if None in matches:
                audit.non_decimal += matches.count(None)
                matches = list(filter(None, matches))
            # the fraction's span is (-1, -1) when the literal has no point
            digits = Counter(map(sub, map(re.Match.end, matches, repeat(1)), map(re.Match.start, matches, repeat(1))))
            for d, n in digits.items():
                audit.histogram[d] = audit.histogram.get(d, 0) + n
                if d > audit.max_decimals_seen:
                    audit.max_decimals_seen = d
                if d > self.max_decimals:
                    audit.flagged += n

    def finish(self) -> dict[str, PrecisionAudit]:
        for f in self.fields:
            audit = self.results[f]
            if audit.flagged:
                self._emit(make_finding(
                    "precision_flag",
                    f"{f!r}: {audit.flagged} value(s) carry more than {self.max_decimals} "
                    f"decimal digits (max seen {audit.max_decimals_seen})",
                    fields=(f,),
                    measured=Measurement(audit.flagged, "values"),
                ))
        return self.results
