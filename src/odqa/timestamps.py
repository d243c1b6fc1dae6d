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

The two default formats are parsed through a per-format day cache keyed
by the date prefix raw[:10], since an export repeats few days. The cache
is two maps: midnights holds the naive epoch of the day's midnight, None
for a prefix that is not a valid date (a miss, so the next format is
still tried), and offsets holds the day's UTC offset only for a day no
zone transition can touch (ZoneRules.fixed_offset). Both are cleared when
full, so garbage input cannot grow them without bound. The clock is read
in two parts, raw[10:16] (" HH:MM") and raw[16:] (":SS AM" or ":SS"),
each looked up in a fixed table of every valid part; text outside a
table falls through to the next format.

TimestampParser.parse_many reads many values at once, column by column:
it slices every value with itemgetter, looks the parts up with
map(dict.get) over the clock tables and the day cache, and adds the
results with map(operator.add), so no Python call runs per value. What
it gives per value is integers (Readings): the naive wall epoch and the
earliest UTC epoch. It leaves to __call__ only the values on a day a
transition can touch, the values that reach a format without a shape
(date-only and strptime formats) and the values that match no format, so
ZoneRules.resolve and the order of the formats are applied in one place.
__call__ stays the per-value reference that parse_many agrees with.
Whole strings are not cached here: the ingest Batch parses each distinct
value once.
"""

from __future__ import annotations

import datetime as dt
import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, repeat
from operator import add, ge, is_not, itemgetter, not_, sub
from typing import Iterable, Sequence

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
    if p[2] != "/" or p[5] != "/" or not p.isascii():
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
    if p[4] != "-" or p[7] != "-" or not p.isascii():
        return None
    yr, mo, da = p[0:4], p[5:7], p[8:10]
    if not (yr.isdigit() and mo.isdigit() and da.isdigit()):
        return None
    try:
        return dt.date(int(yr), int(mo), int(da))
    except ValueError:
        return None


# every valid clock part and its seconds: " HH:MM" at raw[10:16], then
# ":SS AM", ":SS PM" or ":SS" at raw[16:]
_TWO_DIGITS = [f"{i:02d}" for i in range(60)]
_HM_24H = {f" {_TWO_DIGITS[h]}:{mm}": h * 3600 + m * 60 for h in range(24) for m, mm in enumerate(_TWO_DIGITS)}
_HM_12H = {k: v % 43200 for k, v in _HM_24H.items() if " 01" <= k[:3] <= " 12"}    # 12 reads as 0
_SEC_24H = {f":{ss}": s for s, ss in enumerate(_TWO_DIGITS)}
_SEC_12H = {f"{k} {ap}": s + pm for k, s in _SEC_24H.items() for ap, pm in (("AM", 0), ("PM", 43200))}

# date-and-time formats parsed through the day cache and the clock tables:
# format -> (string length, date of raw[:10], raw[10:16] table, raw[16:] table)
_TIMESTAMP_SHAPES = {
    "%m/%d/%Y %I:%M:%S %p": (22, _date_mdy, _HM_12H, _SEC_12H),
    "%Y-%m-%d %H:%M:%S": (19, _date_ymd, _HM_24H, _SEC_24H),
}
_DATE_SHAPES = {"%Y-%m-%d": _date_ymd, "%m/%d/%Y": _date_mdy}

_DAY_CACHE_SIZE = 1 << 15   # date prefixes per format; about 90 years of days
_UNSEEN = object()

_DATE_PART = itemgetter(slice(None, 10))
_HM_PART = itemgetter(slice(10, 16))
_SEC_PART = itemgetter(slice(16, None))
_NO_CLOCK = -86400      # a clock part outside its table: any sum with it is negative


def _split(items: list, flags: list) -> tuple[list, list]:
    """items where flags is true, and where it is false."""
    return list(compress(items, flags)), list(compress(items, map(not_, flags)))


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


def wall_date(wall: int) -> dt.date:
    """The date of a naive wall epoch."""
    return dt.date.fromordinal(wall // 86400 + _EPOCH_ORD)


class Readings:
    """Parse results of many raw values, keyed by the raw text.

    wall maps each value that parsed to its naive wall epoch (seconds
    since 1970 as if the reading were UTC), so its date and seconds of
    day follow by division; utc maps the same values to their earliest
    UTC candidate, except those in a spring-forward gap, which have none.
    fallback holds the LocalTimestamp that __call__ gave for each value
    parse_many left to it, None for a value that matched no format; such
    a value is in fallback only. A fold's later candidate is read from
    fallback, since only a day a transition touches has one.
    """

    __slots__ = ("wall", "utc", "fallback")

    def __init__(self):
        self.wall: dict[str, int] = {}
        self.utc: dict[str, int] = {}
        self.fallback: dict[str, LocalTimestamp | None] = {}


class TimestampParser:
    """Parses raw strings against an ordered format list and zone rules,
    through the caches described in the module docstring."""

    def __init__(self, formats: Sequence[str] = DEFAULT_TIMESTAMP_FORMATS, rules: ZoneRules | None = None):
        if not formats:
            raise ValueError("at least one timestamp format is required")
        self.formats = tuple(formats)
        self.rules = rules if rules is not None else us_eastern_rules()
        # per format: (format, shape or None, its day cache: midnights, offsets)
        self._plan = [(fmt, _TIMESTAMP_SHAPES.get(fmt), {}, {}) for fmt in self.formats]

    def __call__(self, raw: str) -> LocalTimestamp | None:
        for fmt, shape, midnights, offsets in self._plan:
            if shape is None:
                wall = _wall(raw, fmt)
                if wall is not None:
                    d, sod = wall
                    status, candidates = self.rules.resolve(_epoch(d, sod))
                    return LocalTimestamp(d, sod, status, candidates)
                continue
            length, date_of, clocks, seconds = shape
            if len(raw) != length:
                continue
            prefix = raw[:10]
            midnight = midnights.get(prefix, _UNSEEN)
            if midnight is _UNSEEN:
                self._learn_days((prefix,), date_of, midnights, offsets)
                midnight = midnights[prefix]
            hm = clocks.get(raw[10:16])
            sec = seconds.get(raw[16:])
            if midnight is None or hm is None or sec is None:
                continue
            d = wall_date(midnight)
            sod = hm + sec
            offset = offsets.get(prefix)
            if offset is not None:
                return LocalTimestamp(d, sod, ZoneStatus.UNAMBIGUOUS, (midnight + sod - offset,))
            status, candidates = self.rules.resolve(midnight + sod)
            return LocalTimestamp(d, sod, status, candidates)
        return None

    def parse_many(self, values: Iterable[str], into: Readings) -> None:
        """Add the reading of each value to into, agreeing with __call__.

        Each shaped format in turn takes the pending values whose clock
        parts and date it reads: those on a day with a fixed offset are
        done in column arithmetic, those on a transition day go to
        __call__. The rest stay pending for the next format; at a format
        without a shape, or after the last, they go to __call__ too.
        """
        pending = list(values)
        slow: list[str] = []
        for _fmt, shape, midnights, offsets in self._plan:
            if shape is None or not pending:
                break
            _length, date_of, clocks, seconds = shape
            sods = list(map(add, map(clocks.get, map(_HM_PART, pending), repeat(_NO_CLOCK)),
                            map(seconds.get, map(_SEC_PART, pending), repeat(_NO_CLOCK))))
            timed, pending = pending, []
            if min(sods) < 0:
                # a clock part outside its table; both inside implies the format's length
                clocked = list(map(ge, sods, repeat(0)))
                timed, pending = _split(timed, clocked)
                sods = list(compress(sods, clocked))
            prefixes = list(map(_DATE_PART, timed))
            unseen = set(prefixes).difference(midnights)
            if unseen:
                self._learn_days(unseen, date_of, midnights, offsets)
            offs = list(map(offsets.get, prefixes))
            if None in offs:
                # a transition day goes to __call__; a prefix that is no date, to the next format
                fixed = list(map(is_not, offs, repeat(None)))
                timed, loose = _split(timed, fixed)
                prefixes, loose_prefixes = _split(prefixes, fixed)
                sods = list(compress(sods, fixed))
                offs = list(compress(offs, fixed))
                on_transition, undated = _split(loose, list(map(is_not, map(midnights.get, loose_prefixes), repeat(None))))
                slow += on_transition
                pending += undated
            walls = list(map(add, map(midnights.__getitem__, prefixes), sods))
            into.wall.update(zip(timed, walls))
            into.utc.update(zip(timed, map(sub, walls, offs)))
        for raw in slow + pending:
            ts = into.fallback[raw] = self(raw)
            if ts is not None:
                into.wall[raw] = ts.naive_epoch()
                if ts.utc_candidates:
                    into.utc[raw] = ts.utc_candidates[0]

    def _learn_days(self, prefixes: Iterable[str], date_of, midnights: dict, offsets: dict) -> None:
        """Enter each date prefix into one format's day cache."""
        prefixes = list(prefixes)
        if len(midnights) + len(prefixes) > _DAY_CACHE_SIZE:
            midnights.clear()
            offsets.clear()
        for prefix in prefixes:
            d = date_of(prefix)
            if d is None:
                midnights[prefix] = None
                continue
            midnight = midnights[prefix] = _epoch(d, 0)
            offset = self.rules.fixed_offset(midnight, 86400)
            if offset is not None:
                offsets[prefix] = offset
