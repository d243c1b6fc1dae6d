"""Duration, spike, midnight, and post-close audits.

Expected numbers in here are recomputed by hand (or by closed form) from
the input values, not read back from the implementation.
"""

import math
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import datetime as dt

from odqa.ingest import open_table, stream_rows
from odqa.temporal import (
    DurationAuditor,
    MIN_SPIKE_SAMPLE,
    TemporalRules,
    TemporalSummary,
    evaluate_hour_histogram,
    pair_duration,
)
from odqa.timestamps import TimestampParser, ZoneStatus

from conftest import feed


def audit(columns, updated_field=None, **semantics):
    """(summary, findings) of a DurationAuditor on "created"/"closed" over
    columns; semantics are feed's key_field and agency_field."""
    got = []
    auditor = DurationAuditor(
        created_field="created", closed_field="closed", updated_field=updated_field, emit=got.append,
    )
    return feed(auditor, columns, **semantics), got


# ------------------------------------------------------------ pair duration

def test_pair_duration_plain_positive():
    c = TimestampParser()("06/01/2023 10:00:00 AM")
    z = TimestampParser()("06/02/2023 10:00:00 AM")
    assert pair_duration(c, z) == (86400, False)


def test_pair_duration_the_378_day_reversal():
    # the classic swapped pair: created in 2023, closed in 2022
    c = TimestampParser()("01/27/2023 10:15:00 AM")
    z = TimestampParser()("01/14/2022 10:15:00 AM")
    seconds, explainable = pair_duration(c, z)
    assert seconds == -378 * 86400
    assert seconds / 86400.0 == -378.0
    assert not explainable


def test_pair_duration_fold_negative_is_explainable():
    # both readings sit inside the repeated 01:00-02:00 hour; earliest
    # candidates order them backwards but the late/early pairing does not
    c = TimestampParser()("11/05/2023 01:45:00 AM")
    z = TimestampParser()("11/05/2023 01:15:00 AM")
    seconds, explainable = pair_duration(c, z)
    assert seconds == -1800
    assert explainable


def test_pair_duration_gap_is_none():
    c = TimestampParser()("03/12/2023 02:30:00 AM")
    z = TimestampParser()("03/12/2023 10:00:00 AM")
    assert pair_duration(c, z) == (None, False)


def test_pair_duration_across_spring_forward():
    # 01:30 EST to 03:30 EDT is one wall hour shorter in UTC
    c = TimestampParser()("03/12/2023 01:30:00 AM")
    z = TimestampParser()("03/12/2023 03:30:00 AM")
    seconds, _ = pair_duration(c, z)
    assert seconds == 3600


# ------------------------------------------------------ durations, row by row

def test_compute_durations_catalogue():
    created = [
        "06/01/2023 10:00:00 AM",          # one day
        "06/01/2023 10:00:00 AM",          # zero
        "11/05/2023 01:45:00 AM",          # fold negative
        "01/01/1900 03:47:12 AM",          # sentinel, extreme span
        "03/12/2023 02:30:00 AM",          # gap
        "not a date",                      # unparseable
        "NA",                              # missing
    ]
    closed = [
        "06/02/2023 10:00:00 AM",
        "06/01/2023 10:00:00 AM",
        "11/05/2023 01:15:00 AM",
        "06/01/2023 10:00:00 AM",
        "06/01/2023 10:00:00 AM",
        "06/01/2023 10:00:00 AM",
        "06/01/2023 10:00:00 AM",
    ]
    s, findings = audit({"created": created, "closed": closed})
    # the unparseable and missing rows never pair up; the gap row pairs
    # with no duration; the sentinel row is kept out of the distribution
    assert s.gap_pairs == 1
    assert s.duration_count == 3
    assert s.negative == 1 and s.zero == 1 and s.extreme == 1
    assert s.dst_explainable_negatives == 1
    assert s.sentinel_rows == 1 and s.sentinel_and_negative == 0
    assert s.min_seconds == -1800 and s.max_seconds == 86400
    assert s.duration_histogram_days == {-1: 1, 0: 1, 1: 1}
    assert s.parse_failures == {"created": 1, "closed": 0}

    by_rule = {}
    for f in findings:
        by_rule.setdefault(f.rule_id, []).append(f)
    assert sorted(by_rule) == [
        "dst_gap_invalid", "extreme_duration", "insufficient_data", "negative_duration",
        "sentinel_date", "unparseable_timestamp", "zero_duration",
    ]
    assert [f.row_locator for f in by_rule["zero_duration"]] == [2]
    negative = by_rule["negative_duration"]
    assert [f.row_locator for f in negative] == [3]
    assert "explainable by a DST fold" in negative[0].message
    assert negative[0].measured.value == round(-1800 / 86400, 6)
    extreme = by_rule["extreme_duration"]
    assert [f.row_locator for f in extreme] == [4]
    assert extreme[0].measured.value > 0
    assert [f.row_locator for f in by_rule["sentinel_date"]] == [4]
    assert by_rule["sentinel_date"][0].message.count("1900-01-01") == 1
    assert [f.row_locator for f in by_rule["dst_gap_invalid"]] == [5]
    assert [f.row_locator for f in by_rule["unparseable_timestamp"]] == [6]
    assert by_rule["unparseable_timestamp"][0].fields == ("created",)


@settings(max_examples=150)
@given(
    a=st.integers(min_value=0, max_value=30 * 86400),
    b=st.integers(min_value=0, max_value=30 * 86400),
)
def test_compute_durations_matches_naive_delta_in_quiet_window(a, b):
    # June 2023 has no transition, so UTC delta equals wall delta
    base = dt.datetime(2023, 6, 1, 0, 0, 0)
    raw_c = (base + dt.timedelta(seconds=a)).strftime("%m/%d/%Y %I:%M:%S %p")
    raw_z = (base + dt.timedelta(seconds=b)).strftime("%m/%d/%Y %I:%M:%S %p")
    s, findings = audit({"created": [raw_c], "closed": [raw_z]})
    assert s.duration_count == 1
    assert s.min_seconds == s.max_seconds == b - a
    assert s.negative == (b < a)
    assert s.zero == (b == a)
    assert s.extreme == 0 and s.sentinel_rows == 0
    per_row = [f for f in findings if f.row_locator is not None]
    assert len(per_row) == (1 if b <= a else 0)


# ------------------------------------------------------------------- spikes

def test_histogram_single_heavy_bucket():
    counts = [10] * 23 + [100]
    stats = evaluate_hour_histogram(counts)
    assert stats.mean == pytest.approx(13.75)
    # population variance: (23 * 3.75^2 + 86.25^2) / 24
    assert stats.sigma ** 2 == pytest.approx((23 * 3.75 ** 2 + 86.25 ** 2) / 24)
    assert stats.threshold == pytest.approx(13.75 + 3 * math.sqrt(7762.5 / 24))
    assert stats.flagged == (23,)


def test_histogram_uniform_flags_nothing():
    stats = evaluate_hour_histogram([10] * 24)
    assert stats.sigma == 0.0
    assert stats.flagged == ()
    assert evaluate_hour_histogram([0] * 24).flagged == ()


def test_histogram_multiplier_and_length():
    counts = [10] * 23 + [100]
    loose = evaluate_hour_histogram(counts, sigma_multiplier=1.0)
    assert loose.flagged == (23,)
    absurd = evaluate_hour_histogram(counts, sigma_multiplier=10.0)
    assert absurd.flagged == ()
    with pytest.raises(ValueError):
        evaluate_hour_histogram([1] * 23)


@given(st.lists(st.integers(min_value=0, max_value=500), min_size=24, max_size=24))
def test_histogram_flag_set_matches_definition(counts):
    stats = evaluate_hour_histogram(counts)
    mean = sum(counts) / 24
    sigma = math.sqrt(sum((c - mean) ** 2 for c in counts) / 24)
    expect = tuple(h for h, c in enumerate(counts) if c > mean + 3 * sigma)
    assert stats.flagged == expect


def ts_at(hour, minute=0, second=0, day=1):
    return f"2023-06-{day:02d} {hour:02d}:{minute:02d}:{second:02d}"


def created_spikes(readings):
    """(summary, findings on created) for created readings with no closed side."""
    s, got = audit({"created": readings, "closed": [""] * len(readings)})
    return s, [f for f in got if f.fields == ("created",)]


def test_detect_spikes_only_on_the_hour_enters_histogram():
    readings = [ts_at(0) for _ in range(26)] + [ts_at(0, 15) for _ in range(4)]
    s, findings = created_spikes(readings)
    assert s.spike_parsed["created"] == 30
    assert s.spikes["created"].histogram[0] == 26
    assert sum(s.spikes["created"].histogram) == 26
    assert s.spikes["created"].flagged == (0,)
    assert [f.rule_id for f in findings] == ["midnight_batch_suspect"]


def test_detect_spikes_nonzero_hour_is_hour_spike():
    readings = [ts_at(7) for _ in range(26)] + [ts_at(9, 30) for _ in range(4)]
    _, findings = created_spikes(readings)
    assert [f.rule_id for f in findings] == ["hour_spike"]
    assert "07:00" in findings[0].message


def test_detect_spikes_needs_minimum_sample():
    readings = [ts_at(0) for _ in range(MIN_SPIKE_SAMPLE - 1)]
    s, findings = created_spikes(readings)
    assert s.spikes["created"] is None
    assert [f.rule_id for f in findings] == ["insufficient_data"]
    assert findings[0].measured.value == MIN_SPIKE_SAMPLE - 1


# ----------------------------------------------------------------- midnight

def test_midnight_exact_count():
    readings = [ts_at(0), ts_at(0), ts_at(1), ts_at(0, 0, 1)]
    s, _ = audit({"created": readings, "closed": [""] * 4})
    assert s.midnight.count == 2
    with_ag, _ = audit(
        {"created": readings, "closed": [""] * 4, "agency": ["NYPD", "", "DOT", "DOT"]},
        agency_field="agency",
    )
    assert with_ag.midnight.count == 2
    assert with_ag.midnight.by_agency == {"NYPD": 1}    # blank agency unattributed


# --------------------------------------------------------------- post-close

def post_close(closed, updated):
    """(post-close result, post-close findings) for closed/updated pairs."""
    s, got = audit(
        {"created": [""] * len(closed), "closed": closed, "updated": updated},
        updated_field="updated",
    )
    return s.post_close, [f for f in got if f.rule_id.startswith("post_close")]


def test_post_close_lag_buckets():
    closed = ["06/01/2023 10:00:00 AM"] * 6
    base = dt.datetime(2023, 6, 1, 10, 0, 0)
    offsets_days = [0, 5, 31, 800, -5, 30]
    updated = [
        (base + dt.timedelta(days=d)).strftime("%m/%d/%Y %I:%M:%S %p")
        for d in offsets_days
    ]
    out, findings = post_close(closed, updated)
    assert out.pairs_checked == 6
    assert out.late_count == 1                  # only the 31-day lag; 30 is inside
    assert out.infeasible_count == 1            # the 800-day lag, kept out of the histogram
    assert out.lag_histogram_days == {0: 1, 5: 1, 31: 1, -5: 1, 30: 1}
    rules = sorted(f.rule_id for f in findings)
    assert rules == ["post_close_infeasible", "post_close_update"]
    late = next(f for f in findings if f.rule_id == "post_close_update")
    assert late.measured.value == pytest.approx(31.0)
    assert late.row_locator == 3


def test_post_close_skips_unusable_pairs():
    closed = ["NA", "06/01/2023 10:00:00 AM", "03/12/2023 02:30:00 AM", "junk"]
    updated = ["06/01/2023 10:00:00 AM", "", "06/01/2023 10:00:00 AM", "06/01/2023 10:00:00 AM"]
    out, findings = post_close(closed, updated)
    # missing, missing, gap-closed, unparseable: nothing checkable
    assert out.pairs_checked == 0
    assert findings == []


def test_post_close_boundary_is_strict():
    closed = ["06/01/2023 10:00:00 AM"] * 2
    updated = ["07/01/2023 10:00:00 AM", "07/01/2023 10:00:01 AM"]
    out, _ = post_close(closed, updated)
    assert out.late_count == 1                  # 30d exactly is inside the window


# ------------------------------------------------------- streaming auditor

AUDIT_HEADERS = ["unique_key", "created", "closed", "updated"]

AUDIT_ROWS = [
    ["K1", "06/01/2023 10:00:00 AM", "06/02/2023 10:00:00 AM", "06/02/2023 10:00:00 AM"],
    ["K2", "06/01/2023 10:00:00 AM", "06/01/2023 10:00:00 AM", "06/01/2023 10:00:00 AM"],
    ["K3", "11/05/2023 01:45:00 AM", "11/05/2023 01:15:00 AM", "11/05/2023 01:15:00 AM"],
    ["K4", "01/01/1900 03:47:12 AM", "06/01/2023 10:00:00 AM", "07/02/2023 10:00:00 AM"],
    ["K5", "03/12/2023 02:30:00 AM", "03/12/2023 10:00:00 AM", "03/12/2023 10:00:00 AM"],
    ["K6", "06/01/2023 10:00:00 AM", "", "NA"],
]


def run_auditor(rows):
    columns = {name: [row[i] for row in rows] for i, name in enumerate(AUDIT_HEADERS)}
    return audit(columns, updated_field="updated", key_field="unique_key")


def test_auditor_summary_numbers():
    s, _ = run_auditor(AUDIT_ROWS)
    # K4 is sentinel (excluded from the distribution), K5 a gap pair,
    # K6 has no closed reading: three measurable durations remain
    assert s.duration_count == 3
    assert s.negative == 1 and s.zero == 1 and s.extreme == 1
    assert s.gap_pairs == 1
    assert s.sentinel_rows == 1 and s.sentinel_and_negative == 0
    assert s.dst_explainable_negatives == 1
    assert s.min_seconds == -1800 and s.max_seconds == 86400
    assert s.duration_histogram_days == {-1: 1, 0: 1, 1: 1}
    assert s.parse_failures == {"created": 0, "closed": 0, "updated": 0}


def test_auditor_post_close_and_midnight():
    s, _ = run_auditor(AUDIT_ROWS)
    # K5's gap is on created, which post-close never consults; only K6
    # lacks a usable closed/updated pair
    assert s.post_close.pairs_checked == 5
    assert s.post_close.late_count == 1         # K4: 31 days
    assert s.post_close.lag_histogram_days == {0: 4, 31: 1}
    assert s.midnight.count == 0


def test_auditor_findings_carry_key_locators():
    _, got = run_auditor(AUDIT_ROWS)
    by_rule = {}
    for f in got:
        by_rule.setdefault(f.rule_id, []).append(f)
    assert by_rule["negative_duration"][0].row_locator == "K3"
    assert by_rule["zero_duration"][0].row_locator == "K2"
    assert by_rule["sentinel_date"][0].row_locator == "K4"
    assert by_rule["dst_gap_invalid"][0].row_locator == "K5"
    assert by_rule["post_close_update"][0].row_locator == "K4"
    # small stream: both hour histograms decline to evaluate
    assert len(by_rule["insufficient_data"]) == 2


def test_auditor_spike_order_created_then_closed_hours_ascending():
    rows = []
    k = 0
    # created: heavy at 00 and 05, light elsewhere; closed: heavy at 07
    for hour, n in [(0, 100), (5, 100)] + [(h, 10) for h in range(24) if h not in (0, 5)]:
        for _ in range(n):
            k += 1
            rows.append([
                f"K{k}",
                f"2023-06-01 {hour:02d}:00:00",
                "2023-06-02 07:00:00",
                "",
            ])
    s, got = run_auditor(rows)
    spikes = [f for f in got if f.rule_id in ("midnight_batch_suspect", "hour_spike")]
    labels = [(f.fields[0], f.rule_id) for f in spikes]
    assert labels == [
        ("created", "midnight_batch_suspect"),
        ("created", "hour_spike"),
        ("closed", "hour_spike"),
    ]
    assert "05:00" in spikes[1].message
    assert s.spikes["created"].flagged == (0, 5)
    assert s.spikes["closed"].flagged == (7,)
    assert s.spike_parsed["created"] == len(rows)


def test_auditor_midnight_counts_both_sides():
    rows = [
        ["K1", "2023-06-01 00:00:00", "2023-06-01 00:00:00", ""],
        ["K2", "2023-06-01 00:00:00", "2023-06-02 09:00:00", ""],
    ]
    s, _ = run_auditor(rows)
    assert s.midnight.count == 3


def test_auditor_requires_mapped_columns():
    auditor = DurationAuditor(created_field="created", closed_field="nope")
    with pytest.raises(ValueError):
        feed(auditor, {name: [] for name in AUDIT_HEADERS})


def test_auditor_through_file(write_csv):
    p = write_csv("t.csv", """\
        Unique Key,Created,Closed
        K1,06/01/2023 10:00:00 AM,06/02/2023 10:00:00 AM
        K2,06/03/2023 10:00:00 AM,06/03/2023 10:00:00 AM
        """)
    table = open_table(p)
    auditor = DurationAuditor(created_field="created", closed_field="closed")
    stream_rows(table, [auditor])
    assert auditor.summary.duration_count == 2
    assert auditor.summary.zero == 1


def test_summary_as_dict_shape():
    s, _ = run_auditor(AUDIT_ROWS)
    d = s.as_dict()
    assert d["durations"]["count"] == 3
    assert d["durations"]["min_days"] == pytest.approx(-1800 / 86400, abs=1e-6)
    assert d["durations"]["histogram_days"] == {"-1": 1, "0": 1, "1": 1}
    assert d["post_close"]["lag_histogram_days"]["31"] == 1
    assert d["spikes"]["created"]["evaluated"] is False
    assert d["spikes"]["created"]["parsed"] == 6


def test_rules_unit_conversions():
    r = TemporalRules(extreme_cutoff_days=2, post_close_window_days=1)
    assert r.extreme_cutoff_seconds == 172800
    assert r.post_close_window_seconds == 86400


# ------------------------------------------- column arithmetic against rows

def reference_audit(columns, rules, updated_field, agencies):
    """(summary dict, findings) that DurationAuditor must give, recomputed
    row by row from TimestampParser.__call__, pair_duration and the
    earliest UTC candidates, in the order a row-by-row walk emits them."""
    parse = TimestampParser()
    s = TemporalSummary()
    s.parse_failures = {"created": 0, "closed": 0, **({updated_field: 0} if updated_field else {})}
    hist = {"created": [0] * 24, "closed": [0] * 24}
    parsed = {"created": 0, "closed": 0}
    findings = []

    def flag(rule, fields, n, days=None):
        findings.append((rule, fields, n, None if days is None else round(days, 6)))

    def reading(field, raw, n):
        if raw in ("", "NA"):
            return None
        ts = parse(raw)
        if ts is None:
            s.parse_failures[field] += 1
            flag("unparseable_timestamp", (field,), n)
        return ts

    rows = zip(columns["created"], columns["closed"], columns.get(updated_field, repeat(None)), agencies)
    for n, (raw_c, raw_z, raw_u, agency) in enumerate(rows, 1):
        sentinel = False
        both = []
        for field, raw in (("created", raw_c), ("closed", raw_z)):
            ts = reading(field, raw, n)
            both.append(ts)
            if ts is None:
                continue
            parsed[field] += 1
            if ts.seconds_of_day % 3600 == 0:
                hist[field][ts.hour] += 1
            if ts.seconds_of_day == 0:
                s.midnight.count += 1
                if agency not in ("", "NA"):
                    s.midnight.by_agency[agency] = s.midnight.by_agency.get(agency, 0) + 1
            if ts.zone_status is ZoneStatus.DST_GAP_INVALID:
                flag("dst_gap_invalid", (field,), n)
            if ts.date in rules.sentinel_dates:
                flag("sentinel_date", (field,), n)
                sentinel = True
        s.sentinel_rows += sentinel
        ts_c, ts_z = both
        if ts_c is not None and ts_z is not None:
            seconds, explainable = pair_duration(ts_c, ts_z)
            if seconds is None:
                s.gap_pairs += 1
            else:
                days = seconds / 86400
                if seconds < 0:
                    s.negative += 1
                    s.sentinel_and_negative += sentinel
                    s.dst_explainable_negatives += explainable
                    flag("negative_duration", ("created", "closed"), n, days)
                elif seconds == 0:
                    s.zero += 1
                    flag("zero_duration", ("created", "closed"), n, days)
                if abs(seconds) > rules.extreme_cutoff_seconds:
                    s.extreme += 1
                    flag("extreme_duration", ("created", "closed"), n, days)
                elif not sentinel:
                    s.duration_count += 1
                    s.duration_histogram_days[seconds // 86400] = s.duration_histogram_days.get(seconds // 86400, 0) + 1
                    s.min_seconds = seconds if s.min_seconds is None else min(s.min_seconds, seconds)
                    s.max_seconds = seconds if s.max_seconds is None else max(s.max_seconds, seconds)
        if raw_u is None:
            continue
        ts_u = reading(updated_field, raw_u, n)
        if ts_u is None or ts_z is None or ts_u.earliest_utc is None or ts_z.earliest_utc is None:
            continue
        lag = ts_u.earliest_utc - ts_z.earliest_utc
        out = s.post_close
        out.pairs_checked += 1
        fields = ("closed", updated_field)
        if abs(lag) > rules.extreme_cutoff_seconds:
            out.infeasible_count += 1
            flag("post_close_infeasible", fields, n, lag / 86400)
            continue
        out.lag_histogram_days[lag // 86400] = out.lag_histogram_days.get(lag // 86400, 0) + 1
        if lag > rules.post_close_window_seconds:
            out.late_count += 1
            flag("post_close_update", fields, n, lag / 86400)
    for field in ("created", "closed"):
        s.spike_parsed[field] = parsed[field]
        s.spikes[field] = None if parsed[field] < MIN_SPIKE_SAMPLE else evaluate_hour_histogram(hist[field])
    return s.as_dict(), findings


def stamp(wall, fmt):
    return wall.strftime(fmt)


# readings that put every rule to work: a fold, a gap, both sides of
# spring forward, placeholder and epoch-zero dates, the 12 o'clocks,
# a far future, text that is no timestamp, and the missing tokens
TEMPORAL_POOL = [
    "06/01/2023 10:00:00 AM", "06/01/2023 10:00:00 PM", "06/02/2023 10:00:00 AM",
    "06/01/2023 12:00:00 AM", "06/01/2023 12:00:00 PM", "2023-06-01 00:00:00", "2023-06-01 13:00:00",
    "11/05/2023 01:15:00 AM", "11/05/2023 01:45:00 AM", "2023-11-05 01:30:00", "11/05/2023 12:00:00 AM",
    "03/12/2023 02:30:00 AM", "03/12/2023 01:30:00 AM", "03/12/2023 03:30:00 AM", "2023-03-12 02:00:00",
    "01/01/1900 03:47:12 AM", "1900-01-01 00:00:00", "01/01/1970 12:00:00 AM", "12/31/1969 07:00:00 PM",
    "01/14/2022 10:15:00 AM", "07/04/2031 09:00:00 AM",
    "not a date", "13/45/2023 99:00:00 PM", "06/01/2023 10:00:00 am",
    "", "NA",
]

temporal_values = st.one_of(
    st.sampled_from(TEMPORAL_POOL),
    st.builds(
        stamp,
        st.datetimes(min_value=dt.datetime(2022, 1, 1), max_value=dt.datetime(2024, 12, 31)),
        st.sampled_from(["%m/%d/%Y %I:%M:%S %p", "%Y-%m-%d %H:%M:%S"]),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(temporal_values, temporal_values, temporal_values,
                            st.sampled_from(["NYPD", "DOT", "NA", ""])), max_size=60),
    cutoff_days=st.sampled_from([0, 1, 30, 730]),
    window_days=st.sampled_from([0, 1, 30]),
    sentinel=st.sampled_from([dt.date(1900, 1, 1), dt.date(2023, 6, 1)]),
    with_updated=st.booleans(),
    batch_rows=st.sampled_from([1, 7, 256]),
)
def test_auditor_agrees_with_a_row_by_row_walk(rows, cutoff_days, window_days, sentinel, with_updated, batch_rows):
    rules = TemporalRules(sentinel_dates=(sentinel,), extreme_cutoff_days=cutoff_days,
                          post_close_window_days=window_days)
    columns = {"created": [r[0] for r in rows], "closed": [r[1] for r in rows]}
    if with_updated:
        columns["updated"] = [r[2] for r in rows]
    agencies = [r[3] for r in rows]
    updated_field = "updated" if with_updated else None
    got = []
    auditor = DurationAuditor(created_field="created", closed_field="closed", updated_field=updated_field,
                              rules=rules, emit=got.append)
    summary = feed(auditor, {**columns, "agency": agencies}, batch_rows=batch_rows, agency_field="agency")
    want_summary, want_findings = reference_audit(columns, rules, updated_field, agencies)
    assert summary.as_dict() == want_summary
    row_findings = [(f.rule_id, f.fields, f.row_locator, f.measured and f.measured.value)
                    for f in got if f.row_locator is not None]
    assert row_findings == want_findings


def test_epoch_zero_readings_count_everywhere():
    # wall epoch 0, and UTC epoch 0 under us_eastern: both must read as present
    zero_wall, zero_utc = "01/01/1970 12:00:00 AM", "12/31/1969 07:00:00 PM"
    s, findings = audit({"created": [zero_utc, zero_wall], "closed": [zero_wall, zero_utc]})
    assert s.spike_parsed == {"created": 2, "closed": 2}
    assert s.midnight.count == 2
    assert s.parse_failures == {"created": 0, "closed": 0}
    assert s.duration_count == 2
    assert (s.min_seconds, s.max_seconds) == (-5 * 3600, 5 * 3600)
    hist = audit({"created": [zero_utc, zero_wall] * 12, "closed": [""] * 24})[0].spikes["created"].histogram
    assert hist[0] == 12 and hist[19] == 12
    assert [f.rule_id for f in findings if f.row_locator is not None] == ["negative_duration"]
