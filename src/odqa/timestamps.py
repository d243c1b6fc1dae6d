"""Local timestamps with explicit DST semantics.

Parsed timestamps keep their wall-clock reading plus the set of UTC
instants the reading could denote under the configured zone rules: one
for unambiguous times, two (an hour apart) for times repeated by the
fall-back fold, and none for times skipped by the spring-forward gap.
Downstream arithmetic picks candidates deliberately instead of letting a
library silently choose one.

The zone table is self-contained: transitions are generated from the US
federal rules (post-2006: second Sunday in March to first Sunday in
November; 1987-2006: first Sunday in April to last Sunday in October)
rather than read from a system tzdata, so results cannot drift with the
host environment. Config can substitute an explicit transition list.

Parsing is cached twice over, since an export repeats few days and each
cell is read by more than one check. The two default formats go through
a per-format day cache keyed by the date prefix raw[:10]: an entry holds
the date, the naive epoch of its midnight and the day's UTC offset, which
is None when a zone transition can touch that day
(ZoneRules.fixed_offset). Only such days call ZoneRules.resolve. A prefix
that is not a valid date is cached as a miss, so the next format is still
tried. In front sits a 64-entry memo of whole strings, cleared when full,
so a cell parsed again later in the same row costs one dict lookup.
Date-only and other formats take the structural or strptime path on
every call.
"""

from __future__ import annotations

import datetime as dt
import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

_EPOCH_ORD = dt.date(1970, 1, 1).toordinal()

DEFAULT_TIMESTAMP_FORMATS = (
    "%m/%d/%Y %I:%M:%S %p",
    "%Y-%m-%d %H:%M:%S",
)

# date-only fallbacks used where placeholder values like 1900-01-01 appear
DATE_ONLY_FORMATS = ("%Y-%m-%d", "%m/%d/%Y")


class ZoneStatus(enum.Enum):
    UNAMBIGUOUS = "unambiguous"
    DST_GAP_INVALID = "dst_gap_invalid"
    DST_FOLD_AMBIGUOUS = "dst_fold_ambiguous"


@dataclass(frozen=True, slots=True)
class LocalTimestamp:
    """A wall-clock reading resolved against zone rules.

    utc_candidates holds epoch seconds in ascending order; empty for gap
    times, two entries 3600 s apart for fold times.
    """

    date: dt.date
    seconds_of_day: int
    zone_status: ZoneStatus
    utc_candidates: tuple[int, ...]

    @property
    def earliest_utc(self) -> int | None:
        return self.utc_candidates[0] if self.utc_candidates else None

    @property
    def latest_utc(self) -> int | None:
        return self.utc_candidates[-1] if self.utc_candidates else None

    @property
    def hour(self) -> int:
        return self.seconds_of_day // 3600

    @property
    def is_midnight_exact(self) -> bool:
        return self.seconds_of_day == 0

    @property
    def on_the_hour(self) -> bool:
        return self.seconds_of_day % 3600 == 0

    def naive_epoch(self) -> int:
        """Seconds since epoch if the wall reading were UTC."""
        return (self.date.toordinal() - _EPOCH_ORD) * 86400 + self.seconds_of_day

    def isoformat(self) -> str:
        s = self.seconds_of_day
        return f"{self.date.isoformat()} {s // 3600:02d}:{s % 3600 // 60:02d}:{s % 60:02d}"


class ZoneRules:
    """UTC offset rules as an ordered transition table.

    transitions is a sequence of (utc_epoch_seconds, offset_after_seconds);
    initial_offset applies before the first transition. resolve() inverts
    the table for a naive wall reading.
    """

    def __init__(self, transitions: Sequence[tuple[int, int]], initial_offset: int, name: str = "custom"):
        self._times = [t for t, _ in transitions]
        if self._times != sorted(self._times):
            raise ValueError("transitions must be sorted by time")
        self._after = [off for _, off in transitions]
        self.initial_offset = initial_offset
        self.name = name
        self._distinct = tuple(sorted({initial_offset, *self._after}))

    def offset_at(self, utc_epoch: int) -> int:
        i = bisect_right(self._times, utc_epoch)
        return self.initial_offset if i == 0 else self._after[i - 1]

    def fixed_offset(self, naive_start: int, span: int) -> int | None:
        """The single offset of every naive reading in [naive_start,
        naive_start + span), or None when a transition can touch one."""
        lo = naive_start - self._distinct[-1]
        hi = naive_start + span - self._distinct[0]
        i = bisect_right(self._times, lo)
        if i != bisect_left(self._times, hi):
            return None
        return self.initial_offset if i == 0 else self._after[i - 1]

    def resolve(self, naive_epoch: int) -> tuple[ZoneStatus, tuple[int, ...]]:
        candidates = []
        for off in self._distinct:
            utc = naive_epoch - off
            if self.offset_at(utc) == off:
                candidates.append(utc)
        if len(candidates) == 1:
            return ZoneStatus.UNAMBIGUOUS, (candidates[0],)
        if not candidates:
            return ZoneStatus.DST_GAP_INVALID, ()
        candidates.sort()
        return ZoneStatus.DST_FOLD_AMBIGUOUS, tuple(candidates)


def _nth_sunday(year: int, month: int, n: int) -> dt.date:
    first = dt.date(year, month, 1)
    day = 1 + (6 - first.weekday()) % 7 + 7 * (n - 1)
    return dt.date(year, month, day)


def _last_sunday(year: int, month: int, last_day: int) -> dt.date:
    end = dt.date(year, month, last_day)
    return end - dt.timedelta(days=(end.weekday() - 6) % 7)


def _epoch(d: dt.date, seconds: int) -> int:
    return (d.toordinal() - _EPOCH_ORD) * 86400 + seconds


@lru_cache(maxsize=8)
def us_eastern_rules(first_year: int = 1987, last_year: int = 2040) -> ZoneRules:
    """America/New_York offsets generated from the US statutory rules.

    Covers first_year..last_year; times before the first generated
    transition resolve as standard time. Spring transitions happen at
    02:00 standard (07:00 UTC), fall transitions at 02:00 daylight
    (06:00 UTC).
    """
    std, dst = -5 * 3600, -4 * 3600
    transitions: list[tuple[int, int]] = []
    for year in range(first_year, last_year + 1):
        if year >= 2007:
            spring = _nth_sunday(year, 3, 2)
            fall = _nth_sunday(year, 11, 1)
        else:
            spring = _nth_sunday(year, 4, 1)
            fall = _last_sunday(year, 10, 31)
        transitions.append((_epoch(spring, 7 * 3600), dst))
        transitions.append((_epoch(fall, 6 * 3600), std))
    return ZoneRules(transitions, std, name="us_eastern")


def _date_mdy(p: str) -> dt.date | None:
    """"MM/DD/YYYY" as a date; None on mismatch."""
    if p[2] != "/" or p[5] != "/":
        return None
    mo, da, yr = p[0:2], p[3:5], p[6:10]
    if not (mo.isdigit() and da.isdigit() and yr.isdigit()):
        return None
    try:
        return dt.date(int(yr), int(mo), int(da))
    except ValueError:
        return None


def _date_ymd(p: str) -> dt.date | None:
    """"YYYY-MM-DD" as a date; None on mismatch."""
    if p[4] != "-" or p[7] != "-":
        return None
    yr, mo, da = p[0:4], p[5:7], p[8:10]
    if not (yr.isdigit() and mo.isdigit() and da.isdigit()):
        return None
    try:
        return dt.date(int(yr), int(mo), int(da))
    except ValueError:
        return None


def _clock_12h(raw: str) -> int | None:
    """Seconds of day from " HH:MM:SS AM" at raw[10:22]; None on mismatch."""
    if raw[10] != " " or raw[13] != ":" or raw[16] != ":" or raw[19] != " ":
        return None
    hh, mi, ss, ap = raw[11:13], raw[14:16], raw[17:19], raw[20:22]
    if not (hh.isdigit() and mi.isdigit() and ss.isdigit()):
        return None
    try:
        h, m, s = int(hh), int(mi), int(ss)
    except ValueError:
        return None
    if not 1 <= h <= 12 or m > 59 or s > 59:
        return None
    if ap == "AM":
        return h % 12 * 3600 + m * 60 + s
    if ap == "PM":
        return (h % 12 + 12) * 3600 + m * 60 + s
    return None


def _clock_24h(raw: str) -> int | None:
    """Seconds of day from " HH:MM:SS" at raw[10:19]; None on mismatch."""
    if raw[10] != " " or raw[13] != ":" or raw[16] != ":":
        return None
    hh, mi, ss = raw[11:13], raw[14:16], raw[17:19]
    if not (hh.isdigit() and mi.isdigit() and ss.isdigit()):
        return None
    try:
        h, m, s = int(hh), int(mi), int(ss)
    except ValueError:
        return None
    if h > 23 or m > 59 or s > 59:
        return None
    return h * 3600 + m * 60 + s


# date-and-time formats parsed through the day cache:
# format -> (string length, date of raw[:10], seconds of day of raw)
_TIMESTAMP_SHAPES = {
    "%m/%d/%Y %I:%M:%S %p": (22, _date_mdy, _clock_12h),
    "%Y-%m-%d %H:%M:%S": (19, _date_ymd, _clock_24h),
}
_DATE_SHAPES = {"%Y-%m-%d": _date_ymd, "%m/%d/%Y": _date_mdy}

_MEMO_SIZE = 64             # whole strings; catches a cell parsed again in the same row
_DAY_CACHE_SIZE = 1 << 15   # date prefixes per format; about 90 years of days
_UNSEEN = object()


def _wall(raw: str, fmt: str) -> tuple[dt.date, int] | None:
    """Wall reading of a date-only or uncommon format; None on mismatch."""
    date_of = _DATE_SHAPES.get(fmt)
    if date_of is not None:
        if len(raw) != 10:
            return None
        d = date_of(raw)
        return None if d is None else (d, 0)
    try:
        parsed = dt.datetime.strptime(raw, fmt)
    except ValueError:
        return None
    return parsed.date(), parsed.hour * 3600 + parsed.minute * 60 + parsed.second


class TimestampParser:
    """Parses raw strings against an ordered format list and zone rules,
    through the memo and day cache described in the module docstring."""

    def __init__(self, formats: Sequence[str] = DEFAULT_TIMESTAMP_FORMATS, rules: ZoneRules | None = None):
        if not formats:
            raise ValueError("at least one timestamp format is required")
        self.formats = tuple(formats)
        self.rules = rules if rules is not None else us_eastern_rules()
        self._memo: dict[str, LocalTimestamp | None] = {}
        # per format: (format, shape or None, its day cache)
        self._plan = [(fmt, _TIMESTAMP_SHAPES.get(fmt), {}) for fmt in self.formats]

    def __call__(self, raw: str) -> LocalTimestamp | None:
        memo = self._memo
        ts = memo.get(raw, _UNSEEN)
        if ts is _UNSEEN:
            ts = self._parse(raw)
            if len(memo) >= _MEMO_SIZE:
                memo.clear()
            memo[raw] = ts
        return ts

    def _parse(self, raw: str) -> LocalTimestamp | None:
        for fmt, shape, days in self._plan:
            if shape is None:
                wall = _wall(raw, fmt)
                if wall is not None:
                    d, seconds = wall
                    status, candidates = self.rules.resolve(_epoch(d, seconds))
                    return LocalTimestamp(d, seconds, status, candidates)
                continue
            length, date_of, clock_of = shape
            if len(raw) != length:
                continue
            prefix = raw[:10]
            day = days.get(prefix, _UNSEEN)
            if day is _UNSEEN:
                day = self._day(date_of(prefix))
                if len(days) >= _DAY_CACHE_SIZE:
                    days.clear()
                days[prefix] = day
            if day is None:
                continue
            seconds = clock_of(raw)
            if seconds is None:
                continue
            d, midnight, offset = day
            if offset is not None:
                return LocalTimestamp(d, seconds, ZoneStatus.UNAMBIGUOUS, (midnight + seconds - offset,))
            status, candidates = self.rules.resolve(midnight + seconds)
            return LocalTimestamp(d, seconds, status, candidates)
        return None

    def _day(self, d: dt.date | None) -> tuple[dt.date, int, int | None] | None:
        if d is None:
            return None
        midnight = _epoch(d, 0)
        return d, midnight, self.rules.fixed_offset(midnight, 86400)


def parse_timestamp(
    raw: str,
    formats: Sequence[str] = DEFAULT_TIMESTAMP_FORMATS,
    rules: ZoneRules | None = None,
) -> LocalTimestamp | None:
    """One-shot convenience wrapper around TimestampParser."""
    return TimestampParser(formats, rules)(raw)
