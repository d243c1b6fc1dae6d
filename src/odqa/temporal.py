"""Temporal plausibility checks.

Durations are computed between the earliest UTC candidates of the
created and closed readings, so a fold-ambiguous pair can legitimately
come out negative; such findings carry a dst_explainable flag when some
candidate pairing would have been non-negative. Placeholder dates,
zero-second durations, implausibly long spans, on-the-hour volume
spikes, and post-close update lags are each separate rules so their
counts stay independently auditable; overlaps (a sentinel row that is
also negative) are counted explicitly rather than folded together.

DurationAuditor works on the integer epochs of the batch's Readings, a
column at a time: the hour histograms, midnight counts, durations, lags,
their day histograms and the duration extremes are map, compress and
Counter over the batch's columns. It walks rows, in row order, only for
the rows that emit a finding: an unparseable, gap or placeholder reading
on created or closed, a negative, zero or extreme duration, or an
unparseable, infeasible or late update. The counts that go with a
finding are kept there, so each rule's findings keep their row order.
"""

from __future__ import annotations

import datetime as dt
import logging
import math
from collections import Counter
from dataclasses import dataclass, field as dc_field
from itertools import compress, repeat
from operator import and_, floordiv, gt, le, mod, not_, or_, sub
from typing import Sequence

from .findings import Measurement, make_finding
from .ingest import Batch, RawTable, RowConsumer
from .timestamps import LocalTimestamp, Readings, ZoneStatus, wall_date

log = logging.getLogger(__name__)

DEFAULT_SENTINEL_DATES = (dt.date(1900, 1, 1),)
DEFAULT_EXTREME_CUTOFF_DAYS = 730
DEFAULT_POST_CLOSE_WINDOW_DAYS = 30
DEFAULT_SIGMA_MULTIPLIER = 3.0
MIN_SPIKE_SAMPLE = 24

_EPOCH = dt.date(1970, 1, 1)
_ON_THE_HOUR = {h * 3600: h for h in range(24)}    # seconds of day -> hour, on the hour only


def _add_counts(into: dict, counts: Counter) -> None:
    for key, n in counts.items():
        into[key] = into.get(key, 0) + n


@dataclass(frozen=True)
class TemporalRules:
    sentinel_dates: tuple[dt.date, ...] = DEFAULT_SENTINEL_DATES
    extreme_cutoff_days: int = DEFAULT_EXTREME_CUTOFF_DAYS
    post_close_window_days: int = DEFAULT_POST_CLOSE_WINDOW_DAYS
    sigma_multiplier: float = DEFAULT_SIGMA_MULTIPLIER

    @property
    def extreme_cutoff_seconds(self) -> int:
        return self.extreme_cutoff_days * 86400

    @property
    def post_close_window_seconds(self) -> int:
        return self.post_close_window_days * 86400


def pair_duration(created: LocalTimestamp, closed: LocalTimestamp) -> tuple[int | None, bool]:
    """(seconds, dst_explainable) between earliest UTC candidates.

    None when either side has no UTC reading (spring-forward gap).
    dst_explainable is True for a negative duration where some candidate
    pairing is non-negative, i.e. the sign could be a fold artifact.
    """
    a = created.earliest_utc
    b = closed.earliest_utc
    if a is None or b is None:
        return None, False
    d = b - a
    explainable = d < 0 and (closed.latest_utc - a) >= 0
    return d, explainable


@dataclass(frozen=True)
class SpikeStats:
    histogram: tuple[int, ...]
    mean: float
    sigma: float
    threshold: float
    flagged: tuple[int, ...]


def evaluate_hour_histogram(counts: Sequence[int], sigma_multiplier: float = DEFAULT_SIGMA_MULTIPLIER) -> SpikeStats:
    """Flag hour buckets strictly above mean + multiplier * population sigma.

    A flat histogram has sigma 0 and flags nothing, since no bucket
    exceeds the mean.
    """
    if len(counts) != 24:
        raise ValueError("expected a 24-bucket histogram")
    mean = sum(counts) / 24.0
    variance = sum((c - mean) ** 2 for c in counts) / 24.0
    sigma = math.sqrt(variance)
    threshold = mean + sigma_multiplier * sigma
    flagged = tuple(h for h, c in enumerate(counts) if c > threshold)
    return SpikeStats(tuple(counts), mean, sigma, threshold, flagged)


def _spike_finding(field: str, stats: SpikeStats, hour: int):
    rule = "midnight_batch_suspect" if hour == 0 else "hour_spike"
    return make_finding(
        rule,
        f"{field!r}: {stats.histogram[hour]} on-the-hour records at {hour:02d}:00 "
        f"exceed threshold {stats.threshold:.1f} (mean {stats.mean:.1f}, sigma {stats.sigma:.1f})",
        fields=(field,),
        measured=Measurement(stats.histogram[hour], "records"),
    )


@dataclass
class MidnightSummary:
    count: int = 0
    by_agency: dict[str, int] = dc_field(default_factory=dict)


@dataclass
class PostCloseResult:
    lag_histogram_days: dict[int, int] = dc_field(default_factory=dict)
    late_count: int = 0
    infeasible_count: int = 0
    pairs_checked: int = 0


@dataclass
class TemporalSummary:
    duration_count: int = 0
    negative: int = 0
    zero: int = 0
    extreme: int = 0
    gap_pairs: int = 0
    sentinel_rows: int = 0
    sentinel_and_negative: int = 0
    dst_explainable_negatives: int = 0
    min_seconds: int | None = None
    max_seconds: int | None = None
    duration_histogram_days: dict[int, int] = dc_field(default_factory=dict)
    parse_failures: dict[str, int] = dc_field(default_factory=dict)
    spikes: dict[str, SpikeStats | None] = dc_field(default_factory=dict)
    spike_parsed: dict[str, int] = dc_field(default_factory=dict)
    midnight: MidnightSummary = dc_field(default_factory=MidnightSummary)
    post_close: PostCloseResult = dc_field(default_factory=PostCloseResult)

    def as_dict(self) -> dict:
        def spike_dict(name):
            stats = self.spikes.get(name)
            if stats is None:
                return {"parsed": self.spike_parsed.get(name, 0), "evaluated": False}
            return {
                "parsed": self.spike_parsed.get(name, 0),
                "evaluated": True,
                "histogram": list(stats.histogram),
                "mean": round(stats.mean, 4),
                "sigma": round(stats.sigma, 4),
                "threshold": round(stats.threshold, 4),
                "flagged_hours": list(stats.flagged),
            }
        return {
            "durations": {
                "count": self.duration_count,
                "negative": self.negative,
                "zero": self.zero,
                "extreme": self.extreme,
                "gap_pairs": self.gap_pairs,
                "sentinel_rows": self.sentinel_rows,
                "sentinel_and_negative": self.sentinel_and_negative,
                "dst_explainable_negatives": self.dst_explainable_negatives,
                "min_days": None if self.min_seconds is None else round(self.min_seconds / 86400.0, 6),
                "max_days": None if self.max_seconds is None else round(self.max_seconds / 86400.0, 6),
                "histogram_days": {str(k): v for k, v in sorted(self.duration_histogram_days.items())},
            },
            "parse_failures": dict(sorted(self.parse_failures.items())),
            "spikes": {name: spike_dict(name) for name in sorted(self.spikes)},
            "midnight": {
                "count": self.midnight.count,
                "by_agency": dict(sorted(self.midnight.by_agency.items())),
            },
            "post_close": {
                "pairs_checked": self.post_close.pairs_checked,
                "late": self.post_close.late_count,
                "infeasible": self.post_close.infeasible_count,
                "lag_histogram_days": {str(k): v for k, v in sorted(self.post_close.lag_histogram_days.items())},
            },
        }


class DurationAuditor(RowConsumer):
    """Streaming temporal audit over created/closed/updated columns.

    Emits findings as rows arrive; spike findings for the created and
    closed hour histograms arrive at finish, created field first, hours
    ascending, so report ordering is reproducible.
    """

    def __init__(
        self,
        *,
        created_field: str,
        closed_field: str,
        updated_field: str | None = None,
        rules: TemporalRules = TemporalRules(),
        emit=None,
    ):
        self.created_field = created_field
        self.closed_field = closed_field
        self.updated_field = updated_field
        self.columns = (created_field, closed_field) + ((updated_field,) if updated_field else ())
        self.rules = rules
        self._emit = emit if emit is not None else (lambda f: None)
        self.summary = TemporalSummary()

    def start(self, table: RawTable) -> None:
        super().start(table)
        self._ic, self._iz, self._iu = (*self.indexes, None)[:3]   # updated: None when unmapped
        self._hist = ([0] * 24, [0] * 24)      # created, closed
        self._parsed = [0, 0]
        self._sentinel_days = frozenset((d - _EPOCH).days for d in self.rules.sentinel_dates)
        self._cutoff = self.rules.extreme_cutoff_seconds
        self._window = self.rules.post_close_window_seconds
        s = self.summary
        s.parse_failures = {self.created_field: 0, self.closed_field: 0}
        if self.updated_field:
            s.parse_failures[self.updated_field] = 0

    def consume_batch(self, batch: Batch) -> None:
        """Counts of the batch in column arithmetic, then the findings of
        the rows that emit one, walked in row order.

        A cell without a reading (missing, unparseable or, for UTC, in a
        gap) reads as NaN (none), so every difference with it is NaN and
        fails every comparison: it drops out of each count by itself.
        """
        s = self.summary
        readings = batch.parsed(self._ic)     # one Readings for all three columns
        batch.parsed(self._iz)
        if self._iu is not None:
            batch.parsed(self._iu)
        wall, utc, fallback = readings.wall, readings.utc, readings.fallback
        created, closed = batch.columns[self._ic], batch.columns[self._iz]
        agencies = batch.agencies()
        rows = range(len(created))
        day, zero, cutoff, none = repeat(86400), repeat(0), repeat(self._cutoff), repeat(math.nan)
        failed = {raw for raw, ts in fallback.items() if ts is None}
        # the values a created or closed cell must report: unparseable, in a gap, on a placeholder date
        odd = failed.union(raw for raw, ts in fallback.items()
                           if ts is not None and ts.zone_status is ZoneStatus.DST_GAP_INVALID)
        sentinel: set[str] = set()

        # parsed counts, on-the-hour histograms and midnight counts, per side
        for side, (idx, column) in enumerate(((self._ic, created), (self._iz, closed))):
            counts = batch.counts(idx)
            self._parsed[side] += (len(column) - sum(map(counts.__getitem__, batch.missing(idx)))
                                   - sum(map(counts.__getitem__, failed)))
            walls = list(map(wall.get, column, none))
            sods = list(map(mod, walls, day))
            hours = Counter(map(_ON_THE_HOUR.get, sods))
            hours.pop(None, None)
            hist = self._hist[side]
            for hour, n in hours.items():
                hist[hour] += n
            if hours[0]:
                s.midnight.count += hours[0]
                if agencies is not None:
                    by_agency = Counter(compress(agencies, map(not_, sods)))
                    by_agency.pop(None, None)       # rows without an agency
                    _add_counts(s.midnight.by_agency, by_agency)
            sentinel.update(compress(column, map(self._sentinel_days.__contains__, map(floordiv, walls, day))))
        odd |= sentinel
        emits = [map(odd.__contains__, created), map(odd.__contains__, closed)] if odd else []

        # durations between earliest UTC candidates; sentinel rows stay out of the distribution
        closed_utc = list(map(utc.get, closed, none))
        durations = list(map(sub, closed_utc, map(utc.get, created, none)))
        spans = list(map(abs, durations))
        plausible = list(map(le, spans, cutoff))
        if sentinel:
            placeholder = map(or_, map(sentinel.__contains__, created), map(sentinel.__contains__, closed))
            plausible = list(map(and_, plausible, map(not_, placeholder)))
        kept = list(compress(durations, plausible))
        if kept:
            s.duration_count += len(kept)
            _add_counts(s.duration_histogram_days, Counter(map(floordiv, kept, day)))
            low, high = min(kept), max(kept)
            if s.min_seconds is None or low < s.min_seconds:
                s.min_seconds = low
            if s.max_seconds is None or high > s.max_seconds:
                s.max_seconds = high
        emits.append(map(or_, map(le, durations, zero), map(gt, spans, cutoff)))    # negative, zero, extreme

        updated = None if self._iu is None else batch.columns[self._iu]
        if updated is not None:
            # lags from close to update, the feasible ones counted here
            lags = list(map(sub, map(utc.get, updated, none), closed_utc))
            lag_spans = list(map(abs, lags))
            feasible = list(compress(lags, map(le, lag_spans, cutoff)))
            s.post_close.pairs_checked += len(feasible)
            _add_counts(s.post_close.lag_histogram_days, Counter(map(floordiv, feasible, day)))
            emits.append(map(or_, map(gt, lag_spans, cutoff), map(gt, lags, repeat(self._window))))
            if failed:
                emits.append(map(failed.__contains__, updated))

        walk = set()
        for flags in emits:
            walk.update(compress(rows, flags))
        if walk:
            locators = batch.locators()
            for r in sorted(walk):
                self._row(created[r], closed[r], None if updated is None else updated[r], readings, odd, sentinel,
                          locators[r], None if agencies is None else agencies[r])

    def _row(self, raw_c: str, raw_z: str, raw_u: str | None, readings: Readings, odd: set[str],
             sentinel: set[str], locator, agency) -> None:
        """Findings of one row, and the counts that go with them."""
        s = self.summary
        rules = self.rules
        if raw_c in odd:
            self._report(raw_c, readings, self.created_field, locator, agency)
        if raw_z in odd:
            self._report(raw_z, readings, self.closed_field, locator, agency)
        is_sentinel = raw_c in sentinel or raw_z in sentinel
        if is_sentinel:
            s.sentinel_rows += 1
        a, b = readings.utc.get(raw_c), readings.utc.get(raw_z)
        if a is None or b is None:
            if raw_c in readings.wall and raw_z in readings.wall:
                s.gap_pairs += 1
        else:
            seconds = b - a
            days = seconds / 86400.0
            pair = (self.created_field, self.closed_field)
            if seconds < 0:
                s.negative += 1
                if is_sentinel:
                    s.sentinel_and_negative += 1
                ts_z = readings.fallback.get(raw_z)     # a fold's later candidate
                explainable = (b if ts_z is None else ts_z.latest_utc) - a >= 0
                if explainable:
                    s.dst_explainable_negatives += 1
                note = " (sign explainable by a DST fold)" if explainable else ""
                self._flag("negative_duration", f"closed precedes created by {-days:.2f} day(s){note}",
                           pair, locator, agency, days)
            elif seconds == 0:
                s.zero += 1
                self._flag("zero_duration", "created and closed are equal to the second",
                           pair, locator, agency, days)
            if abs(seconds) > self._cutoff:
                s.extreme += 1
                self._flag("extreme_duration", f"absolute duration {abs(days):.1f} day(s) exceeds the "
                           f"{rules.extreme_cutoff_days}-day plausibility cutoff", pair, locator, agency, days)
        if raw_u is not None:
            self._post_close(raw_u, b, readings, locator, agency)

    def _flag(self, rule: str, message: str, fields: tuple[str, ...], locator, agency,
              days: float | None = None) -> None:
        """Emit one row's finding, measured in days when days is given."""
        self._emit(make_finding(
            rule, message, fields=fields, row_locator=locator, agency=agency,
            measured=None if days is None else Measurement(round(days, 6), "days"),
        ))

    def _report(self, raw: str, readings: Readings, field: str, locator, agency) -> None:
        """Findings for a created or closed cell that holds an odd value."""
        wall = readings.wall.get(raw)
        if wall is None:
            self.summary.parse_failures[field] += 1
            self._flag("unparseable_timestamp", f"{field!r} value {raw!r} matched no configured format",
                       (field,), locator, agency)
            return
        ts = readings.fallback.get(raw)
        if ts is not None and ts.zone_status is ZoneStatus.DST_GAP_INVALID:
            self._flag("dst_gap_invalid", f"{field!r} reading {ts.isoformat()} falls in a spring-forward gap",
                       (field,), locator, agency)
        day = wall_date(wall)
        if day in self.rules.sentinel_dates:
            self._flag("sentinel_date", f"{field!r} carries placeholder date {day.isoformat()}",
                       (field,), locator, agency)

    def _post_close(self, raw_u: str, closed_utc: int | None, readings: Readings, locator, agency) -> None:
        """Findings for an updated cell; consume_batch counts the feasible lags."""
        s = self.summary
        if raw_u not in readings.wall:
            if raw_u not in readings.fallback:      # missing
                return
            s.parse_failures[self.updated_field] += 1
            self._flag("unparseable_timestamp",
                       f"{self.updated_field!r} value {raw_u!r} matched no configured format",
                       (self.updated_field,), locator, agency)
            return
        updated_utc = readings.utc.get(raw_u)
        if closed_utc is None or updated_utc is None:
            return
        lag = updated_utc - closed_utc
        rules = self.rules
        days = lag / 86400.0
        fields = (self.closed_field, self.updated_field)
        if abs(lag) > self._cutoff:
            s.post_close.pairs_checked += 1
            s.post_close.infeasible_count += 1
            self._flag("post_close_infeasible", f"update lag {days:.1f} day(s) exceeds the "
                       f"{rules.extreme_cutoff_days}-day cutoff; excluded from the distribution",
                       fields, locator, agency, days)
        elif lag > self._window:
            s.post_close.late_count += 1
            self._flag("post_close_update", f"record updated {days:.1f} day(s) after close "
                       f"(window {rules.post_close_window_days} days)", fields, locator, agency, days)

    def finish(self) -> TemporalSummary:
        s = self.summary
        for field, hist, parsed in zip((self.created_field, self.closed_field), self._hist, self._parsed):
            s.spike_parsed[field] = parsed
            if parsed < MIN_SPIKE_SAMPLE:
                s.spikes[field] = None
                self._emit(make_finding(
                    "insufficient_data",
                    f"{field!r}: {parsed} parsed timestamp(s); spike statistics need at least {MIN_SPIKE_SAMPLE}",
                    fields=(field,),
                    measured=Measurement(parsed, "timestamps"),
                ))
                continue
            stats = evaluate_hour_histogram(hist, self.rules.sigma_multiplier)
            s.spikes[field] = stats
            for hour in stats.flagged:
                self._emit(_spike_finding(field, stats, hour))
        return s
