"""Reference membership, geo bounds, uniqueness, and precision checks."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odqa.domain_rules import (
    GeoBounds,
    GeoBoundsChecker,
    PrecisionAuditor,
    ReferenceChecker,
    UniqueChecker,
    decimal_digits,
    load_reference,
)
from odqa.errors import ConfigError
from odqa.findings import FindingSink
from odqa.ingest import DEFAULT_CLASSIFIER

from conftest import feed


# ------------------------------------------------------------ reference sets

def test_load_reference_trims_and_skips_comments(tmp_path):
    p = tmp_path / "zips.ref"
    p.write_text("# issued zips\n10001\n  10002  \n\n#10003\n10004\n", encoding="utf-8")
    ref = load_reference(p)
    assert ref == frozenset({"10001", "10002", "10004"})


def test_load_reference_rejects_empty_and_unreadable(tmp_path):
    empty = tmp_path / "empty.ref"
    empty.write_text("# nothing but comments\n\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_reference(empty)
    with pytest.raises(ConfigError):
        load_reference(tmp_path / "absent.ref")


ZIPS = frozenset({"10001", "10002", "11201"})


def test_membership_counts_and_findings():
    values = ["10001", "99999", "", "NA", "11201", "99999", "00000"]
    findings = []
    checker = ReferenceChecker({"incident_zip": ZIPS}, emit=findings.append)
    res = feed(checker, {"incident_zip": values})["incident_zip"]
    assert res.checked == 5                     # blanks and sentinels skipped
    assert res.invalid == 3
    assert res.invalid_values == {"99999": 2, "00000": 1}
    assert res.invalid_rate == pytest.approx(3 / 5)
    assert res.top_invalid() == [("99999", 2), ("00000", 1)]
    assert [f.row_locator for f in findings] == [2, 6, 7]
    assert all(f.rule_id == "invalid_value" for f in findings)


def test_membership_rate_undefined_when_nothing_checked():
    res = feed(ReferenceChecker({"zip": ZIPS}), {"zip": ["", "NA"]})["zip"]
    assert res.invalid_rate is None


def test_reference_checker_streaming_with_key_and_agency():
    got = []
    checker = ReferenceChecker({"incident_zip": ZIPS}, emit=got.append)
    res = feed(checker, {
        "unique_key": ["K1", "K2", ""],
        "agency": ["NYPD", "DOT", "NA"],
        "incident_zip": ["10001", "99999", "88888"],
    }, key_field="unique_key", agency_field="agency")["incident_zip"]
    assert res.checked == 3 and res.invalid == 2
    assert res.by_agency_invalid == {"DOT": 1}
    assert got[0].row_locator == "K2" and got[0].agency == "DOT"
    assert got[1].row_locator == 3 and got[1].agency is None


def test_reference_checker_requires_field():
    with pytest.raises(ValueError):
        feed(ReferenceChecker({"zip": ZIPS}), {"a": [], "b": []})


# ------------------------------------------------------------------ geo box

def test_default_box_is_the_city():
    b = GeoBounds()
    assert b.contains(40.7128, -74.0060)        # City Hall
    assert not b.contains(40.7128, -73.20)      # Long Island
    assert not b.contains(0.0, 0.0)             # the null island classic


@pytest.mark.parametrize("lat,lon,inside", [
    (40.49, -74.00, True),                      # closed boundaries
    (40.92, -74.00, True),
    (40.70, -74.27, True),
    (40.70, -73.68, True),
    (40.489999, -74.00, False),
    (40.920001, -74.00, False),
    (40.70, -74.270001, False),
    (40.70, -73.679999, False),
])
def test_box_edges_inclusive(lat, lon, inside):
    assert GeoBounds().contains(lat, lon) is inside


def test_box_validation():
    with pytest.raises(ConfigError):
        GeoBounds(lat_min=41.0, lat_max=40.0)
    with pytest.raises(ConfigError):
        GeoBounds(lon_min=-73.0, lon_max=-74.0)


@given(st.floats(min_value=39, max_value=42), st.floats(min_value=-76, max_value=-72))
def test_box_contains_matches_comparison_chain(lat, lon):
    b = GeoBounds()
    expect = 40.49 <= lat <= 40.92 and -74.27 <= lon <= -73.68
    assert b.contains(lat, lon) is expect


def test_check_geo_bounds_counts():
    lats = ["40.70", "40.95", "", "oops", "40.70"]
    lons = ["-74.00", "-74.00", "-74.00", "-74.00", "NA"]
    findings = []
    checker = GeoBoundsChecker("latitude", "longitude", emit=findings.append)
    res = feed(checker, {"latitude": lats, "longitude": lons})
    assert res.pairs_checked == 2
    assert res.out_of_bounds == 1
    assert res.unparsed == 1
    assert [f.row_locator for f in findings] == [2]


def test_geo_checker_streaming():
    got = []
    checker = GeoBoundsChecker("latitude", "longitude", emit=got.append)
    res = feed(checker, {
        "unique_key": ["K1", "K2", "K3", "K4", "K5", "K6"],
        "latitude": ["40.70", "41.50", "nan", "inf", "40.70", "40.70"],
        "longitude": ["-74.00", "-74.00", "-74.00", "-74.00", "inf", "-inf"],
    }, key_field="unique_key")
    assert res.pairs_checked == 2
    assert res.out_of_bounds == 1
    assert res.unparsed == 4                    # nan and +-inf on either side are not readings
    assert [f.row_locator for f in got] == ["K2"]
    assert "41.50" in got[0].message


# ---------------------------------------------------------------- uniqueness

def test_check_unique_reports_each_duplicated_value_once():
    values = ["A", "B", "A", "C", "A", "B", "", "NA"]
    findings = []
    [res] = feed(UniqueChecker([("unique_key", False)], emit=findings.append), {"unique_key": values})
    assert res.total_present == 6
    assert res.missing == 2
    assert res.duplicate_values == 2
    assert res.duplicate_rows == 5              # three As and two Bs
    by_value = {f.message.split("'")[3]: f for f in findings}
    assert set(by_value) == {"A", "B"}
    a = by_value["A"]
    assert a.measured.value == 3
    assert "rows 1, 3, 5" in a.message
    assert a.row_locator == 1                   # anchored at first occurrence


def test_check_unique_required_flags_blanks():
    values = ["A", "", "NA", "B"]
    findings = []
    checker = UniqueChecker([("unique_key", True)], emit=findings.append)
    [res] = feed(checker, {"unique_key": values})
    assert res.missing == 2
    assert [f.rule_id for f in findings] == ["missing_key", "missing_key"]
    assert [f.row_locator for f in findings] == [2, 3]


def test_unique_locator_cap():
    findings = []
    [res] = feed(UniqueChecker([("key", False)], emit=findings.append), {"key": ["X"] * 25})
    assert res.duplicate_values == 1
    assert res.duplicate_rows == 25
    f = findings[0]
    assert f.measured.value == 25
    assert "appears 25 times" in f.message
    assert "and 5 more" in f.message
    shown = f.message.split("(rows ")[1].rstrip(")").split(", and ")[0]
    assert len(shown.split(", ")) == UniqueChecker.LOCATOR_CAP


@given(st.lists(st.sampled_from(["A", "B", "C", "D", "", "NA"]), max_size=40))
def test_unique_agrees_with_counter(values):
    [res] = feed(UniqueChecker([("key", False)]), {"key": values})
    present = [v for v in values if v not in ("", "NA")]
    counts = Counter(present)
    assert res.total_present == len(present)
    assert res.missing == len(values) - len(present)
    dup = {v: n for v, n in counts.items() if n >= 2}
    assert res.duplicate_values == len(dup)
    assert res.duplicate_rows == sum(dup.values())


def test_unique_checker_requires_field():
    with pytest.raises(ValueError):
        feed(UniqueChecker([("key", False)]), {"a": []})


# ----------------------------------------------------------------- precision

@pytest.mark.parametrize("raw,digits", [
    ("40.86769186022511", 14),
    ("-73.891", 3),
    ("40", 0),
    ("+7", 0),
    (" 40.50 ", 2),                             # textual digits, trailing zero counts
    ("0.000001", 6),
    ("4e5", None),
    ("40.", None),
    (".5", None),
    ("forty", None),
    ("", None),
])
def test_decimal_digits(raw, digits):
    assert decimal_digits(raw) == digits


@given(
    sign=st.sampled_from(["", "+", "-"]),
    whole=st.integers(min_value=0, max_value=999),
    frac=st.text(alphabet="0123456789", max_size=18),
)
def test_decimal_digits_counts_constructed_literals(sign, whole, frac):
    raw = f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"
    assert decimal_digits(raw) == len(frac)


def test_audit_precision_histogram_and_flagging():
    values = ["40.5", "40.86769186022511", "40.123456", "40.1234567", "oops", "NA", ""]
    findings = []
    auditor = PrecisionAuditor(["latitude"], max_decimals=6, emit=findings.append)
    audit = feed(auditor, {"latitude": values})["latitude"]
    assert audit.histogram == {1: 1, 14: 1, 6: 1, 7: 1}
    assert audit.flagged == 2                   # strictly more than 6 digits
    assert audit.non_decimal == 1
    assert audit.max_decimals_seen == 14
    assert len(findings) == 1                   # aggregated, not per cell
    f = findings[0]
    assert f.rule_id == "precision_flag"
    assert f.measured.value == 2
    assert "max seen 14" in f.message


def test_audit_precision_quiet_when_everything_plausible():
    findings = []
    auditor = PrecisionAuditor(["value"], max_decimals=6, emit=findings.append)
    audit = feed(auditor, {"value": ["40.5", "40.123456"]})["value"]
    assert audit.flagged == 0
    assert findings == []


def test_precision_auditor_multi_field():
    got = []
    auditor = PrecisionAuditor(["latitude", "longitude"], 6, emit=got.append)
    res = feed(auditor, {
        "latitude": ["40.86769186022511", "40.5"],
        "longitude": ["-73.9", "-73.96443258599051"],
    })
    assert res["latitude"].flagged == 1
    assert res["longitude"].flagged == 1
    assert [f.fields[0] for f in got] == ["latitude", "longitude"]


def test_precision_auditor_refuses_a_field_listed_twice():
    # counting it twice would double its histogram and its finding
    with pytest.raises(ValueError, match="'lat' listed twice"):
        PrecisionAuditor(["lat", "lat"], 2)
    audit = feed(PrecisionAuditor(["lat"], 2), {"lat": ["1.234", "5.6"]})["lat"]
    assert audit.histogram == {3: 1, 1: 1} and audit.flagged == 1


def test_precision_auditor_requires_fields():
    with pytest.raises(ValueError):
        feed(PrecisionAuditor(["nope"]), {"a": []})


@given(st.lists(st.sampled_from(
    ["40.5", "40.12345678901", "7", "NA", "", "junk", "-73.123456"]
), max_size=30))
def test_audit_precision_matches_counter(values):
    audit = feed(PrecisionAuditor(["value"], max_decimals=6), {"value": values})["value"]
    expect = Counter()
    non_decimal = 0
    for v in values:
        if v in ("", "NA"):
            continue
        d = decimal_digits(v)
        if d is None:
            non_decimal += 1
        else:
            expect[d] += 1
    assert audit.histogram == dict(expect)
    assert audit.non_decimal == non_decimal
    assert audit.flagged == sum(n for d, n in expect.items() if d > 6)


decimal_texts = st.one_of(
    st.builds(
        "{}{}{}{}{}".format,
        st.sampled_from(["", " ", "\t"]),
        st.sampled_from(["", "+", "-", "--"]),
        st.text(alphabet="0123456789", max_size=4),
        st.sampled_from(["", "."]).flatmap(lambda point: st.text(alphabet="0123456789.", max_size=18).map(
            lambda frac: point + frac)),
        st.sampled_from(["", " ", "\u00a0", "e5"]),     # strip() removes a no-break space
    ),
    st.sampled_from(["NA", "", "forty", "٤٠.٥", "40.５", "1e3", "nan"]),
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(decimal_texts, max_size=40), batch_rows=st.sampled_from([1, 5, 256]))
def test_column_digit_count_agrees_with_decimal_digits(values, batch_rows):
    audit = feed(PrecisionAuditor(["value"], max_decimals=6), {"value": values}, batch_rows=batch_rows)["value"]
    digits = [decimal_digits(v) for v in values if DEFAULT_CLASSIFIER.kind_of(v) is None]
    counted = Counter(d for d in digits if d is not None)
    assert audit.histogram == dict(counted)
    assert audit.non_decimal == digits.count(None)
    assert audit.flagged == sum(n for d, n in counted.items() if d > 6)
    assert audit.max_decimals_seen == max(counted, default=0)


# ------------------------------------------------- capped sinks against every finding

@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(st.tuples(
        st.sampled_from(["10001", "99999", "88888", "", "NA"]),
        st.sampled_from(["10001", "77777", ""]),
        st.sampled_from(["40.70", "41.50", "nan", "x", ""]),
        st.sampled_from(["-74.00", "-75.00", ""]),
        st.sampled_from(["K1", "K2", "K3", "", "NA"]),
        st.sampled_from(["NYPD", "DOT", ""]),
    ), max_size=50),
    batch_rows=st.sampled_from([1, 7, 256]),
    cap=st.sampled_from([1, 3, 100]),
)
def test_capped_sinks_get_what_every_finding_would_give(rows, batch_rows, cap):
    """Reference, geo and required-key checkers handed a FindingSink build
    only what fits each rule's room; results and sink end as with a plain
    callable whose findings all reach the sink."""
    names = ("zip_a", "zip_b", "latitude", "longitude", "key", "agency")
    columns = {name: [r[i] for r in rows] for i, name in enumerate(names)}

    def checkers(emit):
        return [
            ReferenceChecker({"zip_a": ZIPS, "zip_b": ZIPS}, emit=emit),
            GeoBoundsChecker("latitude", "longitude", emit=emit),
            UniqueChecker([("key", True), ("zip_b", True)], emit=emit),
        ]

    def results(emit):
        return [feed(c, columns, batch_rows=batch_rows, key_field="key", agency_field="agency")
                for c in checkers(emit)]

    got = []
    want_results = results(got.append)
    want = FindingSink(cap)
    for f in got:
        want.emit(f)
    references, geo, uniques = want_results
    assert sum(res.invalid for res in references.values()) == want.counts.get("invalid_value", 0)
    assert geo.out_of_bounds == want.counts.get("geo_out_of_bounds", 0)
    assert sum(res.missing for res in uniques) == want.counts.get("missing_key", 0)    # both specs required
    capped = FindingSink(cap)
    assert results(capped) == want_results
    assert (capped.counts, capped.severity_counts, capped.samples) == (want.counts, want.severity_counts, want.samples)
