"""Temporal plausibility checks.

Durations are computed between the earliest UTC candidates of the
created and closed readings, so a fold-ambiguous pair can legitimately
come out negative; such findings carry a dst_explainable flag when some
candidate pairing would have been non-negative. Placeholder dates,
zero-second durations, implausibly long spans, on-the-hour volume
spikes, and post-close update lags are each separate rules so their
counts stay independently auditable; overlaps (a sentinel row that is
also negative) are counted explicitly rather than folded together.
"""

from __future__ import annotations

import datetime as dt
import logging
import math
from dataclasses import dataclass, field as dc_field
from itertools import repeat
from typing import Sequence

from .findings import Measurement, make_finding
from .ingest import Batch, RawTable, RowConsumer
from .timestamps import LocalTimestamp, ZoneStatus

log = logging.getLogger(__name__)

DEFAULT_SENTINEL_DATES = (dt.date(1900, 1, 1),)
DEFAULT_EXTREME_CUTOFF_DAYS = 730
DEFAULT_POST_CLOSE_WINDOW_DAYS = 30
DEFAULT_SIGMA_MULTIPLIER = 3.0
MIN_SPIKE_SAMPLE = 24


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
        s = self.summary
        s.parse_failures = {self.created_field: 0, self.closed_field: 0}
        if self.updated_field:
            s.parse_failures[self.updated_field] = 0

    def consume_batch(self, batch: Batch) -> None:
        s = self.summary
        rules = self.rules
        parsed = batch.parsed(self._ic)     # one dict for all three columns
        batch.parsed(self._iz)
        if self._iu is not None:
            batch.parsed(self._iu)

        def column(idx):
            """The column at idx and its missing values; None and {} when unmapped."""
            if idx is None:
                return repeat(None), {}
            return batch.columns[idx], batch.missing(idx)

        created, missing_c = column(self._ic)
        closed, missing_z = column(self._iz)
        updated, missing_u = column(self._iu)
        pair = (self.created_field, self.closed_field)
        # per distinct reading: parsed counts, on-the-hour histograms, midnight count
        for side, idx, missing in ((0, self._ic, missing_c), (1, self._iz, missing_z)):
            for raw, n in batch.counts(idx).items():
                ts = None if raw in missing else parsed[raw]
                if ts is not None:
                    self._parsed[side] += n
                    sod = ts.seconds_of_day
                    if sod % 3600 == 0:
                        self._hist[side][sod // 3600] += n
                    if sod == 0:
                        s.midnight.count += n
        # the parsed values a created or closed cell must report on
        odd = {
            raw for raw, ts in parsed.items()
            if ts is None or ts.zone_status is ZoneStatus.DST_GAP_INVALID or ts.date in rules.sentinel_dates
        }

        for locator, agency, raw_c, raw_z, raw_u in zip(
            batch.locators(), batch.agencies() or repeat(None), created, closed, updated,
        ):
            if raw_c in missing_c:
                ts_c = None
            else:
                ts_c = parsed[raw_c]
                if raw_c in odd:
                    self._report(ts_c, raw_c, self.created_field, locator, agency)
            if raw_z in missing_z:
                ts_z = None
            else:
                ts_z = parsed[raw_z]
                if raw_z in odd:
                    self._report(ts_z, raw_z, self.closed_field, locator, agency)
            sentinel = False
            for ts in (ts_c, ts_z):
                if ts is not None:
                    if agency and ts.seconds_of_day == 0:
                        s.midnight.by_agency[agency] = s.midnight.by_agency.get(agency, 0) + 1
                    if ts.date in rules.sentinel_dates:
                        sentinel = True
            if sentinel:
                s.sentinel_rows += 1

            if ts_c is not None and ts_z is not None:
                seconds, explainable = pair_duration(ts_c, ts_z)
                if seconds is None:
                    s.gap_pairs += 1
                else:
                    days = seconds / 86400.0
                    if seconds < 0:
                        s.negative += 1
                        if sentinel:
                            s.sentinel_and_negative += 1
                        if explainable:
                            s.dst_explainable_negatives += 1
                        note = " (sign explainable by a DST fold)" if explainable else ""
                        self._flag("negative_duration", f"closed precedes created by {-days:.2f} day(s){note}",
                                   pair, locator, agency, days)
                    elif seconds == 0:
                        s.zero += 1
                        self._flag("zero_duration", "created and closed are equal to the second",
                                   pair, locator, agency, days)
                    if abs(seconds) > rules.extreme_cutoff_seconds:
                        s.extreme += 1
                        self._flag("extreme_duration", f"absolute duration {abs(days):.1f} day(s) exceeds the "
                                   f"{rules.extreme_cutoff_days}-day plausibility cutoff", pair, locator, agency, days)
                    if not sentinel and abs(seconds) <= rules.extreme_cutoff_seconds:
                        s.duration_count += 1
                        day_bucket = seconds // 86400
                        hist = s.duration_histogram_days
                        hist[day_bucket] = hist.get(day_bucket, 0) + 1
                        if s.min_seconds is None or seconds < s.min_seconds:
                            s.min_seconds = seconds
                        if s.max_seconds is None or seconds > s.max_seconds:
                            s.max_seconds = seconds

            if raw_u is not None and raw_u not in missing_u:
                self._post_close(parsed[raw_u], raw_u, ts_z, locator, agency)

    def _flag(self, rule: str, message: str, fields: tuple[str, ...], locator, agency,
              days: float | None = None) -> None:
        """Emit one row's finding, measured in days when days is given."""
        self._emit(make_finding(
            rule, message, fields=fields, row_locator=locator, agency=agency,
            measured=None if days is None else Measurement(round(days, 6), "days"),
        ))

    def _report(self, ts: LocalTimestamp | None, raw: str, field: str, locator, agency) -> None:
        """Findings for a present created or closed cell that parsed as ts."""
        if ts is None:
            self.summary.parse_failures[field] += 1
            self._flag("unparseable_timestamp", f"{field!r} value {raw!r} matched no configured format",
                       (field,), locator, agency)
            return
        if ts.zone_status is ZoneStatus.DST_GAP_INVALID:
            self._flag("dst_gap_invalid", f"{field!r} reading {ts.isoformat()} falls in a spring-forward gap",
                       (field,), locator, agency)
        if ts.date in self.rules.sentinel_dates:
            self._flag("sentinel_date", f"{field!r} carries placeholder date {ts.date.isoformat()}",
                       (field,), locator, agency)

    def _post_close(self, ts_u: LocalTimestamp | None, raw_updated: str, ts_z: LocalTimestamp | None,
                    locator, agency) -> None:
        s = self.summary
        if ts_u is None:
            s.parse_failures[self.updated_field] += 1
            self._flag("unparseable_timestamp",
                       f"{self.updated_field!r} value {raw_updated!r} matched no configured format",
                       (self.updated_field,), locator, agency)
            return
        if ts_z is None:
            return
        a = ts_z.earliest_utc
        b = ts_u.earliest_utc
        if a is None or b is None:
            return
        lag = b - a
        out = s.post_close
        out.pairs_checked += 1
        rules = self.rules
        days = lag / 86400.0
        fields = (self.closed_field, self.updated_field)
        if abs(lag) > rules.extreme_cutoff_seconds:
            out.infeasible_count += 1
            self._flag("post_close_infeasible", f"update lag {days:.1f} day(s) exceeds the "
                       f"{rules.extreme_cutoff_days}-day cutoff; excluded from the distribution",
                       fields, locator, agency, days)
            return
        out.lag_histogram_days[lag // 86400] = out.lag_histogram_days.get(lag // 86400, 0) + 1
        if lag > rules.post_close_window_seconds:
            out.late_count += 1
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
