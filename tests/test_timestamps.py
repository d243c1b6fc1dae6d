"""Zone rule and parser tests.

The transition oracle here recomputes the US statutory dates from
calendar.monthcalendar, deliberately not sharing arithmetic with the
module under test, and the full table is cross-checked against the
system tzdata where available.
"""

import calendar
import csv
import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odqa import timestamps
from odqa.config import load_config
from odqa.generator import generate_fixture
from odqa.ingest import BATCH_ROWS, DEFAULT_CLASSIFIER
from odqa.pipeline import run_audit
from odqa.timestamps import (
    DATE_ONLY_FORMATS,
    DEFAULT_TIMESTAMP_FORMATS,
    LocalTimestamp,
    Readings,
    TimestampParser,
    ZoneRules,
    ZoneStatus,
    us_eastern_rules,
)

from conftest import AUDIT_CONFIG_TEMPLATE

UTC = dt.timezone.utc


def sundays(year, month):
    return [w[6] for w in calendar.monthcalendar(year, month) if w[6]]


def expected_transitions(first_year, last_year):
    """(utc_epoch, offset_after) pairs from the statutory rules."""
    out = []
    for y in range(first_year, last_year + 1):
        if y >= 2007:
            spring = dt.date(y, 3, sundays(y, 3)[1])
            fall = dt.date(y, 11, sundays(y, 11)[0])
        else:
            spring = dt.date(y, 4, sundays(y, 4)[0])
            fall = dt.date(y, 10, sundays(y, 10)[-1])
        # 02:00 EST = 07:00 UTC; 02:00 EDT = 06:00 UTC
        on = int(dt.datetime(y, spring.month, spring.day, 7, tzinfo=UTC).timestamp())
        off = int(dt.datetime(y, fall.month, fall.day, 6, tzinfo=UTC).timestamp())
        out.append((on, -4 * 3600))
        out.append((off, -5 * 3600))
    return out


def naive_epoch(*args):
    return int(dt.datetime(*args, tzinfo=UTC).timestamp())


# ---------------------------------------------------------------- zone table

def test_us_eastern_transitions_match_statutory_oracle():
    rules = us_eastern_rules()
    expect = expected_transitions(1987, 2040)
    got = list(zip(rules._times, rules._after))
    assert got == expect
    assert rules.initial_offset == -5 * 3600


def test_known_transition_dates():
    # spot values computed by hand from published DST calendars
    table = dict(expected_transitions(1987, 2040))
    assert naive_epoch(2023, 3, 12, 7) in table       # 2nd Sunday March 2023
    assert naive_epoch(2023, 11, 5, 6) in table       # 1st Sunday November 2023
    assert naive_epoch(2006, 4, 2, 7) in table        # old rule: 1st Sunday April
    assert naive_epoch(2006, 10, 29, 6) in table      # old rule: last Sunday October
    assert naive_epoch(2007, 3, 11, 7) in table       # Energy Policy Act switch


def test_offsets_against_system_tzdata():
    try:
        from zoneinfo import ZoneInfo
        ny = ZoneInfo("America/New_York")
    except Exception:
        pytest.skip("system tzdata not available")
    rules = us_eastern_rules()
    # probe either side of every generated transition plus month midpoints
    probes = []
    for t in rules._times:
        probes += [t - 1, t, t + 1]
    for y in (1987, 1999, 2006, 2007, 2023, 2040):
        for m in range(1, 13):
            probes.append(naive_epoch(y, m, 15, 12))
    for utc_s in probes:
        aware = dt.datetime.fromtimestamp(utc_s, tz=UTC).astimezone(ny)
        assert rules.offset_at(utc_s) == int(aware.utcoffset().total_seconds()), utc_s


def test_times_before_table_resolve_as_standard():
    rules = us_eastern_rules()
    status, cands = rules.resolve(naive_epoch(1980, 7, 1, 12))
    assert status is ZoneStatus.UNAMBIGUOUS
    assert cands == (naive_epoch(1980, 7, 1, 12) + 5 * 3600,)


def test_unsorted_transitions_rejected():
    with pytest.raises(ValueError):
        ZoneRules([(100, -14400), (50, -18000)], -18000)


# ------------------------------------------------------------------ resolve

def test_resolve_summer_and_winter():
    rules = us_eastern_rules()
    summer = naive_epoch(2023, 7, 15, 9, 30)
    status, cands = rules.resolve(summer)
    assert status is ZoneStatus.UNAMBIGUOUS and cands == (summer + 4 * 3600,)
    winter = naive_epoch(2023, 1, 15, 9, 30)
    status, cands = rules.resolve(winter)
    assert status is ZoneStatus.UNAMBIGUOUS and cands == (winter + 5 * 3600,)


def test_resolve_spring_gap():
    rules = us_eastern_rules()
    status, cands = rules.resolve(naive_epoch(2023, 3, 12, 2, 30))
    assert status is ZoneStatus.DST_GAP_INVALID
    assert cands == ()
    # both neighbours of the gap stay valid
    assert rules.resolve(naive_epoch(2023, 3, 12, 1, 59, 59))[0] is ZoneStatus.UNAMBIGUOUS
    assert rules.resolve(naive_epoch(2023, 3, 12, 3, 0, 0))[0] is ZoneStatus.UNAMBIGUOUS


def test_resolve_fall_fold():
    rules = us_eastern_rules()
    naive = naive_epoch(2023, 11, 5, 1, 30)
    status, cands = rules.resolve(naive)
    assert status is ZoneStatus.DST_FOLD_AMBIGUOUS
    # first pass (EDT) precedes the repeat (EST) by exactly an hour
    assert cands == (naive + 4 * 3600, naive + 5 * 3600)
    assert rules.resolve(naive_epoch(2023, 11, 5, 0, 59, 59))[0] is ZoneStatus.UNAMBIGUOUS
    assert rules.resolve(naive_epoch(2023, 11, 5, 2, 0, 0))[0] is ZoneStatus.UNAMBIGUOUS


@given(st.integers(min_value=0, max_value=86399 - 3600))
def test_translation_invariance_away_from_transitions(shift):
    # inside a transition-free day, resolving commutes with shifting
    rules = us_eastern_rules()
    base = naive_epoch(2023, 7, 10, 0, 0)
    s0, c0 = rules.resolve(base)
    s1, c1 = rules.resolve(base + shift)
    assert s0 is ZoneStatus.UNAMBIGUOUS and s1 is ZoneStatus.UNAMBIGUOUS
    assert c1[0] - c0[0] == shift


# ------------------------------------------------------------------ parsing

def test_parse_portal_format():
    ts = TimestampParser()("01/27/2023 02:45:13 PM")
    assert ts is not None
    assert ts.date == dt.date(2023, 1, 27)
    assert ts.seconds_of_day == 14 * 3600 + 45 * 60 + 13
    assert ts.zone_status is ZoneStatus.UNAMBIGUOUS
    assert ts.earliest_utc == naive_epoch(2023, 1, 27, 14, 45, 13) + 5 * 3600


def test_parse_iso_format():
    ts = TimestampParser()("2023-07-04 00:00:00")
    assert ts is not None and ts.seconds_of_day == 0
    assert ts.hour == 0
    assert ts.earliest_utc == naive_epoch(2023, 7, 4, 0) + 4 * 3600


def test_parse_noon_and_midnight_twelve():
    assert TimestampParser()("06/01/2023 12:00:00 PM").seconds_of_day == 12 * 3600
    assert TimestampParser()("06/01/2023 12:00:00 AM").seconds_of_day == 0


def test_parse_gap_time_is_structurally_valid():
    ts = TimestampParser()("03/12/2023 02:30:00 AM")
    assert ts is not None
    assert ts.zone_status is ZoneStatus.DST_GAP_INVALID
    assert ts.utc_candidates == ()
    assert ts.earliest_utc is None and ts.latest_utc is None


def test_parse_fold_time_keeps_both_readings():
    ts = TimestampParser()("11/05/2023 01:30:00 AM")
    assert ts.zone_status is ZoneStatus.DST_FOLD_AMBIGUOUS
    assert len(ts.utc_candidates) == 2
    assert ts.latest_utc - ts.earliest_utc == 3600


def test_parse_placeholder_epoch():
    # placeholder rows in the portal carry 1900 dates; they must parse
    ts = TimestampParser()("01/01/1900 03:47:12 AM")
    assert ts is not None
    assert ts.date == dt.date(1900, 1, 1)
    assert ts.zone_status is ZoneStatus.UNAMBIGUOUS


def test_date_only_formats():
    p = TimestampParser(DATE_ONLY_FORMATS)
    a = p("2023-01-27")
    b = p("01/14/2022")
    assert a.seconds_of_day == 0 and b.seconds_of_day == 0
    assert (a.date - b.date).days == 378
    assert (b.naive_epoch() - a.naive_epoch()) // 86400 == -378


@pytest.mark.parametrize("raw", [
    "",
    "not a date",
    "13/01/2023 01:00:00 AM",        # month 13
    "02/30/2023 01:00:00 AM",        # no Feb 30
    "01/01/2023 00:15:00 AM",        # %I has no hour 0
    "01/01/2023 13:00:00 PM",        # %I has no hour 13
    "01/01/2023 01:61:00 AM",
    "01/01/2023 01:00:61 AM",
    "01/01/2023 01:00:00 XM",
    "2023-01-27 24:00:00",
    "2023-01-27T00:00:00",
    "1/5/2023 03:04:05 AM",          # unpadded is not the portal shape
])
def test_rejected_strings(raw):
    assert TimestampParser()(raw) is None


def test_empty_format_list_rejected():
    with pytest.raises(ValueError):
        TimestampParser(())


def test_uncommon_format_falls_back_to_strptime():
    p = TimestampParser(("%d.%m.%Y %H:%M:%S",))
    ts = p("27.01.2023 08:05:09")
    assert ts.date == dt.date(2023, 1, 27)
    assert ts.seconds_of_day == 8 * 3600 + 5 * 60 + 9
    assert p("2023-01-27 08:05:09") is None


@settings(max_examples=300)
@given(st.datetimes(min_value=dt.datetime(1900, 1, 1), max_value=dt.datetime(2039, 12, 31, 23, 59, 59)))
def test_fast_path_agrees_with_strftime_roundtrip(wall):
    wall = wall.replace(microsecond=0)
    for fmt in DEFAULT_TIMESTAMP_FORMATS:
        raw = wall.strftime(fmt)
        ts = TimestampParser((fmt,))(raw)
        assert ts is not None, raw
        assert ts.date == wall.date()
        assert ts.seconds_of_day == wall.hour * 3600 + wall.minute * 60 + wall.second


@settings(max_examples=300)
@given(st.text(alphabet="0123456789/:- APM", min_size=0, max_size=25))
def test_fast_path_never_accepts_what_strptime_rejects(raw):
    # soundness: anything the structural parser takes, strptime takes too,
    # with the same wall reading (the converse is not required: strptime
    # tolerates unpadded fields)
    for fmt in DEFAULT_TIMESTAMP_FORMATS:
        ts = TimestampParser((fmt,))(raw)
        if ts is None:
            continue
        parsed = dt.datetime.strptime(raw, fmt)
        assert parsed.date() == ts.date
        assert parsed.hour * 3600 + parsed.minute * 60 + parsed.second == ts.seconds_of_day


@given(st.datetimes(min_value=dt.datetime(1988, 1, 1), max_value=dt.datetime(2039, 12, 31)))
def test_resolution_statuses_partition(wall):
    wall = wall.replace(microsecond=0)
    ts = TimestampParser()(wall.strftime("%Y-%m-%d %H:%M:%S"))
    if ts.zone_status is ZoneStatus.UNAMBIGUOUS:
        assert len(ts.utc_candidates) == 1
    elif ts.zone_status is ZoneStatus.DST_FOLD_AMBIGUOUS:
        assert len(ts.utc_candidates) == 2
        assert ts.utc_candidates[1] - ts.utc_candidates[0] == 3600
    else:
        assert ts.utc_candidates == ()
    # candidates, when mapped back through the offset table, reproduce
    # the wall reading
    rules = us_eastern_rules()
    for utc in ts.utc_candidates:
        assert utc + rules.offset_at(utc) == ts.naive_epoch()


def test_isoformat_roundtrip():
    ts = TimestampParser()("07/04/2023 01:02:03 PM")
    assert ts.isoformat() == "2023-07-04 13:02:03"
    again = TimestampParser()(ts.isoformat())
    assert again.date == ts.date and again.seconds_of_day == ts.seconds_of_day


def test_local_timestamp_is_frozen():
    ts = TimestampParser()("2023-07-04 12:00:00")
    with pytest.raises(AttributeError):
        ts.seconds_of_day = 5


# ------------------------------------------------------- day cache and memo

# readings that probe a day: midnight, 01:00-03:45 every 15 minutes (where
# US transitions fall), 12 AM / 12 PM and the last second
PROBE_SECONDS = sorted({0, 12 * 3600, 86399, *range(3600, 4 * 3600, 900)})


def transition_days(first_year, last_year):
    """Every US spring and fall transition day under both rule eras."""
    days = []
    for y in range(first_year, last_year + 1):
        if y >= 2007:
            days += [dt.date(y, 3, sundays(y, 3)[1]), dt.date(y, 11, sundays(y, 11)[0])]
        else:
            days += [dt.date(y, 4, sundays(y, 4)[0]), dt.date(y, 10, sundays(y, 10)[-1])]
    return days


def resolved(rules, day, seconds):
    """What the parser must return: ZoneRules.resolve on the naive epoch."""
    naive = (day.toordinal() - dt.date(1970, 1, 1).toordinal()) * 86400 + seconds
    return (day, seconds, *rules.resolve(naive))


def parsed(ts):
    return (ts.date, ts.seconds_of_day, ts.zone_status, ts.utc_candidates)


def assert_parser_agrees_with_resolve(parser, days):
    for day in days:
        for seconds in PROBE_SECONDS:
            wall = dt.datetime.combine(day, dt.time()) + dt.timedelta(seconds=seconds)
            want = resolved(parser.rules, day, seconds)
            for fmt in DEFAULT_TIMESTAMP_FORMATS:
                raw = wall.strftime(fmt)
                assert parsed(parser(raw)) == want, raw
                assert parsed(parser(raw)) == want, raw      # memo hit


def test_day_cache_agrees_with_resolve_on_every_us_transition_day():
    days = transition_days(1986, 2041)
    ordinary = [dt.date(1986, 1, 1), dt.date(1999, 12, 31), dt.date(2000, 2, 29),
                dt.date(2023, 7, 4), dt.date(2041, 12, 31)]
    around = [d + dt.timedelta(days=k) for d in days for k in (-1, 1)]
    assert_parser_agrees_with_resolve(TimestampParser(), days + ordinary + around)
    statuses = {parsed(TimestampParser()(d.strftime("%Y-%m-%d") + " 02:30:00"))[2] for d in days}
    assert statuses == {ZoneStatus.UNAMBIGUOUS, ZoneStatus.DST_GAP_INVALID}


# Two non-US tables. "southern": +10:00 / +11:00, switching at 02:00
# standard and 03:00 daylight, then two changes at local midnight, one of
# them by half an hour. "midnight": -03:00 / -02:00, switching at local
# midnight both ways, so each fall-back fold reaches into the evening of
# the day before.
CUSTOM_RULES = {
    "southern": (11 * 3600, 470, dt.date(2022, 3, 30), [
        (naive_epoch(2022, 4, 2, 16), 10 * 3600),            # 03:00 +11 -> 02:00 +10
        (naive_epoch(2022, 10, 1, 16), 11 * 3600),           # 02:00 +10 -> 03:00 +11
        (naive_epoch(2023, 3, 4, 13), 10 * 3600 + 1800),     # 00:00 +11 -> 23:30 +10:30
        (naive_epoch(2023, 6, 30, 13, 30), 11 * 3600),       # 00:00 +10:30 -> 00:30 +11
    ]),
    "midnight": (-3 * 3600, 400, dt.date(2018, 10, 1), [
        (naive_epoch(2018, 11, 4, 3), -2 * 3600),            # 00:00 -03 -> 01:00 -02
        (naive_epoch(2019, 2, 17, 2), -3 * 3600),            # 00:00 -02 -> 23:00 -03 the day before
        (naive_epoch(2019, 9, 8, 3), -2 * 3600),
    ]),
}


@pytest.mark.parametrize("name", sorted(CUSTOM_RULES))
def test_day_cache_agrees_with_resolve_on_custom_rules(name):
    initial, span, start, transitions = CUSTOM_RULES[name]
    rules = ZoneRules(transitions, initial, name=name)
    days = [start + dt.timedelta(days=k) for k in range(span)]
    assert_parser_agrees_with_resolve(TimestampParser(rules=rules), days)


def test_fixed_offset_is_none_only_near_transitions():
    rules = us_eastern_rules()
    midnight = naive_epoch(2023, 3, 12)
    assert rules.fixed_offset(midnight, 86400) is None
    assert rules.fixed_offset(midnight - 86400, 86400) == -5 * 3600
    assert rules.fixed_offset(midnight + 86400, 86400) == -4 * 3600
    assert ZoneRules((), 3600).fixed_offset(midnight, 86400) == 3600


@pytest.mark.parametrize("raw,want", [
    ("02/30/2023 01:00:00 AM", None),
    ("13/01/2020 01:00:00 AM", dt.date(2020, 1, 13)),
    ("00/10/2020 01:00:00 AM", None),
    ("2020-13-01 01:00:00", dt.date(2020, 1, 13)),
    ("2023-02-30 01:00:00", None),
])
def test_invalid_date_prefix_falls_through_to_the_next_format(raw, want):
    parser = TimestampParser((
        "%m/%d/%Y %I:%M:%S %p", "%Y-%m-%d %H:%M:%S",
        "%d/%m/%Y %I:%M:%S %p", "%Y-%d-%m %H:%M:%S",
    ))
    later = raw.replace("01:00:00", "02:00:00")     # same prefix: a day-cache hit
    for text in (raw, later, raw):
        ts = parser(text)
        assert (ts.date if ts else None) == want, text


def test_memo_overflow_reparses_equal():
    parser = TimestampParser()
    first = parser("03/12/2023 02:30:00 AM")
    for minute in range(100):
        parser(f"06/01/2023 10:{minute % 60:02d}:{minute // 60:02d} AM")
    again = parser("03/12/2023 02:30:00 AM")
    assert again == first
    assert again.zone_status is ZoneStatus.DST_GAP_INVALID


# ------------------------------------------------------------ clock tables

@pytest.mark.parametrize("raw", [
    "01/02/2023 13:00:00 PM",
    "01/02/2023 00:30:00 AM",
    "01/02/2023 12:60:00 PM",
    "01/02/2023 11:59:60 AM",
    "01/02/2023 11:59:59 am",
    "2023-01-02 24:00:00",
    "01/02/2023 \uff11\uff11:59:59 AM",       # full-width digits in the hour
    "01/02/2023 11:59:\uff15\uff19 AM",       # and in the seconds
    "\uff10\uff11/02/2023 11:59:59 AM",       # and in the date
    "2023-01-02 \uff12\uff13:00:00",
])
def test_invalid_clock_falls_through_after_its_other_half_parsed(raw):
    parser = TimestampParser()
    # valid readings sharing the date and either clock half of each string above
    assert parser("01/02/2023 11:59:59 AM") is not None
    assert parser("01/02/2023 12:00:00 PM") is not None
    assert parser("2023-01-02 23:00:00") is not None
    assert parser(raw) is None
    later = TimestampParser(DEFAULT_TIMESTAMP_FORMATS + ("%d/%m/%Y %H:%M:%S %p",))
    assert later(raw) == TimestampParser(("%d/%m/%Y %H:%M:%S %p",))(raw)


def test_seconds_and_meridiem_share_the_hour_minute_part():
    rules = us_eastern_rules()
    parser = TimestampParser()
    for raw, wall in (
        ("11/05/2023 01:30:15 AM", (2023, 11, 5, 1, 30, 15)),
        ("11/05/2023 01:30:45 PM", (2023, 11, 5, 13, 30, 45)),
        ("03/12/2023 02:30:00 AM", (2023, 3, 12, 2, 30, 0)),
        ("03/12/2023 02:30:59 PM", (2023, 3, 12, 14, 30, 59)),
        ("2023-11-05 01:30:15", (2023, 11, 5, 1, 30, 15)),
        ("2023-11-05 01:30:45", (2023, 11, 5, 1, 30, 45)),
    ):
        ts = parser(raw)
        assert (ts.zone_status, ts.utc_candidates) == rules.resolve(naive_epoch(*wall)), raw
        assert ts.naive_epoch() == naive_epoch(*wall)


# ------------------------------------------------------------ column path

def assert_readings_agree(into, parser, values):
    """Readings of values, as parse_many gave them, against parser(raw) per value."""
    for raw in values:
        want = parser(raw)
        if want is None:
            assert raw not in into.wall and raw not in into.utc, raw
            assert into.fallback[raw] is None, raw
            continue
        assert into.wall[raw] == want.naive_epoch(), raw
        assert into.utc.get(raw) == want.earliest_utc, raw
        if raw in into.fallback:
            assert into.fallback[raw] == want, raw
        else:   # only a day no transition touches is read column-wise
            assert want.zone_status is ZoneStatus.UNAMBIGUOUS, raw


# every kind of day the column path must tell apart: both US transition
# days and their neighbours, the custom tables' transition days, the
# placeholder date, both sides of the epoch and a leap day
COLUMN_DAYS = sorted({
    d + dt.timedelta(days=k)
    for d in transition_days(2022, 2023) + [
        dt.date(2022, 4, 3), dt.date(2022, 10, 2), dt.date(2023, 3, 5), dt.date(2023, 7, 1),
        dt.date(2018, 11, 4), dt.date(2019, 2, 16), dt.date(2019, 9, 8),
    ]
    for k in (-1, 0, 1)
} | {dt.date(1900, 1, 1), dt.date(1969, 12, 31), dt.date(1970, 1, 1), dt.date(2024, 2, 29)})

COLUMN_RULES = {"us_eastern": us_eastern_rules()} | {
    name: ZoneRules(transitions, initial, name=name)
    for name, (initial, _span, _start, transitions) in CUSTOM_RULES.items()
}

# formats a parser may be given, in any order: the two shaped defaults, the
# date-only fallbacks, and one strptime format
COLUMN_FORMATS = DEFAULT_TIMESTAMP_FORMATS + DATE_ONLY_FORMATS + ("%d/%m/%Y %I:%M:%S %p",)

dates = st.one_of(
    st.builds(dt.date.strftime, st.sampled_from(COLUMN_DAYS), st.sampled_from(["%m/%d/%Y", "%Y-%m-%d"])),
    st.sampled_from(["02/30/2023", "13/01/2020", "00/10/2020", "2023-02-30", "2020-13-01", "1/2/2023", "2023-1-02"]),
)
clocks = st.one_of(
    st.builds(
        lambda seconds, fmt: (dt.datetime(2000, 1, 1) + dt.timedelta(seconds=seconds)).strftime(fmt),
        st.sampled_from(PROBE_SECONDS) | st.integers(0, 86399),
        st.sampled_from([" %I:%M:%S %p", " %H:%M:%S"]),
    ),
    st.sampled_from([
        " 13:00:00 PM", " 00:30:00 AM", " 12:60:00 PM", " 11:59:60 AM", " 11:59:59 am", " 24:00:00",
        " 23:59:60", " 1:02:03 AM", " 01:02:03", " 01:02:03 AM ", "T01:02:03", " １１:59:59 AM", "",
    ]),
)
raw_timestamps = st.one_of(
    st.builds(str.__add__, dates, clocks),
    st.sampled_from(["", "not a date", "2023-07-04T10:00:00", "12:00:00 AM 07/04/2023"]),
    st.text(alphabet="0123456789/-: APM", max_size=24),
)


@settings(max_examples=300, deadline=None)
@given(
    order=st.permutations(COLUMN_FORMATS),
    n_formats=st.integers(1, len(COLUMN_FORMATS)),
    zone=st.sampled_from(sorted(COLUMN_RULES)),
    batches=st.lists(st.lists(raw_timestamps, max_size=30), min_size=1, max_size=3),
)
def test_column_parse_agrees_with_call(order, n_formats, zone, batches):
    formats, rules = order[:n_formats], COLUMN_RULES[zone]
    parser = TimestampParser(formats, rules)
    into = Readings()
    for batch in batches:       # later batches meet a warm day cache
        parser.parse_many(set(batch), into)
    assert_readings_agree(into, TimestampParser(formats, rules), [v for b in batches for v in b])


def test_column_parse_survives_a_day_cache_overflow(monkeypatch):
    monkeypatch.setattr(timestamps, "_DAY_CACHE_SIZE", 4)
    parser = TimestampParser()
    days = [dt.date(2023, 3, 1) + dt.timedelta(days=k) for k in range(20)]
    values = [d.strftime(fmt) for d in days for fmt in ("%m/%d/%Y 02:30:00 AM", "%Y-%m-%d 01:30:00")]
    into = Readings()
    for lo in range(0, len(values), 6):
        parser.parse_many(values[lo:lo + 6], into)
        assert len(parser._plan[0][2]) <= 6
    assert_readings_agree(into, TimestampParser(), values)


def test_audit_parses_per_value_only_what_the_column_path_cannot(tmp_path, monkeypatch):
    """Work-count guard: during an audit, TimestampParser.__call__ runs once
    per batch for each distinct present value of the timestamp columns that
    lies on a US transition day or is not the exact shape of a default
    format; everything else is read column-wise."""
    fx = generate_fixture(tmp_path / "fx", rows=2000, seed=16)
    cfg_path = tmp_path / "audit.yaml"
    cfg_path.write_text(AUDIT_CONFIG_TEMPLATE.format(
        input=fx.csv_path, dictionary=fx.dictionary_path, zips=fx.zip_reference_path, out_dir=tmp_path / "out",
    ), encoding="utf-8")
    calls = []
    per_value = TimestampParser.__call__
    monkeypatch.setattr(TimestampParser, "__call__", lambda self, raw: calls.append(raw) or per_value(self, raw))
    run_audit(load_config(cfg_path), write=False)

    transition = set(transition_days(1987, 2040))
    shapes = {22: "%m/%d/%Y %I:%M:%S %p", 19: "%Y-%m-%d %H:%M:%S"}

    def per_value_only(raw):
        try:
            wall = dt.datetime.strptime(raw, shapes[len(raw)])
        except (KeyError, ValueError):
            return True
        return wall.strftime(shapes[len(raw)]) != raw or wall.date() in transition

    with open(fx.csv_path, newline="", encoding="utf-8") as fh:
        records = csv.reader(fh)
        header = next(records)
        columns = [header.index(c) for c in ("Created Date", "Closed Date", "Resolution Action Updated Date")]
        rows = [r for r in records if len(r) == len(header)]
    expected = 0
    for lo in range(0, len(rows), BATCH_ROWS):
        values = {r[i] for r in rows[lo:lo + BATCH_ROWS] for i in columns}
        expected += sum(DEFAULT_CLASSIFIER.kind_of(v) is None and per_value_only(v) for v in values)
    assert 0 < len(calls) == expected
