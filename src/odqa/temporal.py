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
their day histograms, the duration extremes and every summary count are
map, compress and Counter over the batch's columns. Each rule's flagged
cells (an unparseable, gap or placeholder reading on created or closed,
a negative, zero or extreme duration, an unparseable, infeasible or late
update) are listed in row-major order. Only the first room(rule) of them
are built into findings, emitted in the order a row-by-row walk gives;
the sink tallies the rest. A plain emit callable has unbounded room, so
it is handed every finding.
"""

from __future__ import annotations

import datetime as dt
import logging
import math
from collections import Counter
from dataclasses import dataclass, field as dc_field
from heapq import merge
from itertools import compress, islice, repeat
from operator import and_, eq, floordiv, gt, le, mod, not_, or_, sub
from typing import Sequence

from .findings import Finding, Measurement, as_sink, make_finding
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

# A row's findings, in the order a row-by-row walk emits them: each slot is
# (rule, source), source the position in DurationAuditor.columns of the
# cell reported, or the duration or lag whose seconds are reported.
_DURATION, _LAG = "duration", "lag"
_SLOTS = (
    ("unparseable_timestamp", 0), ("dst_gap_invalid", 0), ("sentinel_date", 0),
    ("unparseable_timestamp", 1), ("dst_gap_invalid", 1), ("sentinel_date", 1),
    ("negative_duration", _DURATION), ("zero_duration", _DURATION), ("extreme_duration", _DURATION),
    ("unparseable_timestamp", 2), ("post_close_infeasible", _LAG), ("post_close_update", _LAG),
)
_UNPARSEABLE, _GAP, _PLACEHOLDER = range(3)      # of created; add 3 for closed
_NEGATIVE, _ZERO, _EXTREME, _UNPARSEABLE_UPDATE, _INFEASIBLE, _LATE = range(6, 12)
_RULE_SLOTS = {rule: tuple(i for i, (r, _) in enumerate(_SLOTS) if r == rule) for rule, _ in _SLOTS}


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
        self._sink = as_sink(emit)
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
        """Counts of the batch in column arithmetic, then the findings that
        fill a sample slot, in row order; see the module docstring.

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
        updated = None if self._iu is None else batch.columns[self._iu]
        agencies = batch.agencies()
        rows = range(len(created))
        day, zero, cutoff, none = repeat(86400), repeat(0), repeat(self._cutoff), repeat(math.nan)
        failed = {raw for raw, ts in fallback.items() if ts is None}
        gaps = {raw for raw, ts in fallback.items() if ts is not None and ts.zone_status is ZoneStatus.DST_GAP_INVALID}
        cells: dict[int, list[int]] = {}      # slot -> the rows it flags, ascending

        def flag(slot: int, flags) -> int:
            hit = list(compress(rows, flags))
            if hit:
                cells[slot] = hit
            return len(hit)

        # per side: parse failures, parsed counts, on-the-hour histograms, midnight counts and odd cells
        on_placeholder = []
        for side, (idx, column) in enumerate(((self._ic, created), (self._iz, closed))):
            counts = batch.counts(idx)
            fails = sum(map(counts.__getitem__, failed))
            s.parse_failures[self.columns[side]] += fails
            self._parsed[side] += len(column) - sum(map(counts.__getitem__, batch.missing(idx))) - fails
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
            if fails:
                flag(3 * side + _UNPARSEABLE, map(failed.__contains__, column))
            if gaps:
                flag(3 * side + _GAP, map(gaps.__contains__, column))
            marks = list(map(self._sentinel_days.__contains__, map(floordiv, walls, day)))
            if flag(3 * side + _PLACEHOLDER, marks):
                on_placeholder.append(marks)
        if gaps:
            in_gap = map(or_, map(gaps.__contains__, created), map(gaps.__contains__, closed))
            both_read = map(and_, map(wall.__contains__, created), map(wall.__contains__, closed))
            s.gap_pairs += sum(map(and_, in_gap, both_read))

        # durations between earliest UTC candidates; placeholder rows stay out of the distribution
        closed_utc = list(map(utc.get, closed, none))
        durations = list(map(sub, closed_utc, map(utc.get, created, none)))
        spans = list(map(abs, durations))
        plausible = list(map(le, spans, cutoff))
        placeholder = None
        if on_placeholder:
            placeholder = on_placeholder[0] if len(on_placeholder) == 1 else list(map(or_, *on_placeholder))
            s.sentinel_rows += sum(placeholder)
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
        explainable: set[int] = set()
        if negatives := flag(_NEGATIVE, map(gt, zero, durations)):
            s.negative += negatives
            rows_negative = cells[_NEGATIVE]
            if placeholder is not None:
                s.sentinel_and_negative += sum(map(placeholder.__getitem__, rows_negative))
            # only a closed value on a transition day has a later fold candidate
            folds = compress(rows_negative, map(fallback.__contains__, map(closed.__getitem__, rows_negative)))
            explainable = {r for r in folds if fallback[closed[r]].latest_utc >= utc[created[r]]}
            s.dst_explainable_negatives += len(explainable)
        s.zero += flag(_ZERO, map(eq, durations, zero))
        s.extreme += flag(_EXTREME, map(gt, spans, cutoff))

        lags = None
        if updated is not None:
            # lags from close to update; the feasible ones make the distribution
            fails = sum(map(batch.counts(self._iu).__getitem__, failed))
            if fails:
                s.parse_failures[self.updated_field] += fails
                flag(_UNPARSEABLE_UPDATE, map(failed.__contains__, updated))
            lags = list(map(sub, map(utc.get, updated, none), closed_utc))
            lag_spans = list(map(abs, lags))
            feasible = list(map(le, lag_spans, cutoff))
            fine = list(compress(lags, feasible))
            infeasible = flag(_INFEASIBLE, map(gt, lag_spans, cutoff))
            post = s.post_close
            post.pairs_checked += len(fine) + infeasible
            post.infeasible_count += infeasible
            _add_counts(post.lag_histogram_days, Counter(map(floordiv, fine, day)))
            post.late_count += flag(_LATE, map(and_, feasible, map(gt, lags, repeat(self._window))))

        # per rule, its flagged cells in row-major order: the first room(rule) are built, the rest tallied
        chosen = []
        for rule, slots in _RULE_SLOTS.items():
            parts = [(slot, cells[slot]) for slot in slots if slot in cells]
            if not parts:
                continue
            total = sum(len(hit) for _slot, hit in parts)
            room = self._sink.room(rule)
            chosen += islice(merge(*(zip(hit, repeat(slot)) for slot, hit in parts)), room)
            if total > room:
                self._sink.tally(rule, total - room)
        if not chosen:
            return
        locators = batch.locators()
        values = {_DURATION: durations, _LAG: lags, 0: created, 1: closed, 2: updated}
        for r, slot in sorted(chosen):
            rule, source = _SLOTS[slot]
            self._sink.emit(self._finding(rule, source, values[source][r], readings, r in explainable,
                                          locators[r], None if agencies is None else agencies[r]))

    def _finding(self, rule: str, source, value, readings: Readings, explainable: bool, locator, agency) -> Finding:
        """One flagged cell's finding. source is the column position the
        cell's text value comes from, or _DURATION or _LAG for the seconds."""
        if source in (_DURATION, _LAG):
            rules = self.rules
            days = value / 86400.0
            if rule == "negative_duration":
                note = " (sign explainable by a DST fold)" if explainable else ""
                message = f"closed precedes created by {-days:.2f} day(s){note}"
            elif rule == "zero_duration":
                message = "created and closed are equal to the second"
            elif rule == "extreme_duration":
                message = (f"absolute duration {abs(days):.1f} day(s) exceeds the "
                           f"{rules.extreme_cutoff_days}-day plausibility cutoff")
            elif rule == "post_close_infeasible":
                message = (f"update lag {days:.1f} day(s) exceeds the "
                           f"{rules.extreme_cutoff_days}-day cutoff; excluded from the distribution")
            else:
                message = f"record updated {days:.1f} day(s) after close (window {rules.post_close_window_days} days)"
            fields = self.columns[:2] if source == _DURATION else self.columns[1:]
            return make_finding(rule, message, fields=fields, row_locator=locator, agency=agency,
                                measured=Measurement(round(days, 6), "days"))
        field = self.columns[source]
        if rule == "unparseable_timestamp":
            message = f"{field!r} value {value!r} matched no configured format"
        elif rule == "dst_gap_invalid":
            message = f"{field!r} reading {readings.fallback[value].isoformat()} falls in a spring-forward gap"
        else:
            message = f"{field!r} carries placeholder date {wall_date(readings.wall[value]).isoformat()}"
        return make_finding(rule, message, fields=(field,), row_locator=locator, agency=agency)

    def finish(self) -> TemporalSummary:
        s = self.summary
        for field, hist, parsed in zip((self.created_field, self.closed_field), self._hist, self._parsed):
            s.spike_parsed[field] = parsed
            if parsed < MIN_SPIKE_SAMPLE:
                s.spikes[field] = None
                self._sink.emit(make_finding(
                    "insufficient_data",
                    f"{field!r}: {parsed} parsed timestamp(s); spike statistics need at least {MIN_SPIKE_SAMPLE}",
                    fields=(field,),
                    measured=Measurement(parsed, "timestamps"),
                ))
                continue
            stats = evaluate_hour_histogram(hist, self.rules.sigma_multiplier)
            s.spikes[field] = stats
            for hour in stats.flagged:
                self._sink.emit(_spike_finding(field, stats, hour))
        return s
