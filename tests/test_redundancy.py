"""Pair matching, concatenation, street normalization, dependencies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odqa.errors import ConfigError
from odqa.ingest import DEFAULT_CLASSIFIER
from odqa.redundancy import (
    ConcatChecker,
    FDChecker,
    PairCollector,
    StreetNormalizer,
    VERDICT_DISTINCT,
    VERDICT_DUPLICATE,
    VERDICT_NA,
    VERDICT_NEAR,
    normalize_street,
)

from conftest import feed


def is_blank(v):
    return DEFAULT_CLASSIFIER.kind_of(v) is not None


def match(a, b, normalizer=None):
    """Stats of one pair ("a", "b") streamed through a PairCollector."""
    return feed(PairCollector([("a", "b", normalizer)]), {"a": a, "b": b})[0]


def concat(target, a, b, template="({a}, {b})"):
    return feed(ConcatChecker("t", "a", "b", template), {"t": target, "a": a, "b": b})


def dependency(a, b):
    return feed(FDChecker("a", "b"), {"a": a, "b": b})


# ---------------------------------------------------------------- pair match

def test_pair_match_counts():
    a = ["BROOKLYN", "QUEENS", "", "NA", "BRONX", "QUEENS"]
    b = ["BROOKLYN", "QUEENS", "", "BRONX", "", "STATEN"]
    collector = PairCollector([("borough", "park_borough", None)])
    s = feed(collector, {"borough": a, "park_borough": b})[0]
    assert (s.field_a, s.field_b) == ("borough", "park_borough")
    assert s.rows == 6
    assert s.both_blank == 1                    # ("", "")
    assert s.one_blank == 2                     # ("NA", "BRONX") and ("BRONX", "")
    assert s.both_present == 3
    assert s.exact_match == 2
    assert s.rate_both_present == pytest.approx(2 / 3)
    assert s.rate_nonblank == pytest.approx(2 / 5)
    assert not s.blank_masks_equal


def test_identical_columns_are_a_duplicate():
    col = ["BROOKLYN", "", "QUEENS", "NA", "BRONX"]
    s = match(col, list(col))
    assert s.rate_both_present == 1.0
    assert s.blank_masks_equal
    assert s.verdict() == VERDICT_DUPLICATE


def test_verdict_thresholds():
    def stats_with_rate(num, den):
        return match(["x"] * num + ["y"] * (den - num), ["x"] * den)

    assert stats_with_rate(100, 100).verdict() == VERDICT_DUPLICATE
    assert stats_with_rate(85, 100).verdict() == VERDICT_NEAR       # >= 0.85
    assert stats_with_rate(84, 100).verdict() == VERDICT_DISTINCT
    assert stats_with_rate(84, 100).verdict(near_threshold=0.8) == VERDICT_NEAR
    assert match(["", "NA"], ["", "x"]).verdict() == VERDICT_NA


def test_rates_are_none_not_zero_without_denominator():
    s = match(["", ""], ["", ""])
    assert s.rate_both_present is None
    assert s.rate_nonblank is None
    assert s.normalized_rate is None
    assert s.as_dict()["verdict"] == VERDICT_NA


def test_normalized_match_includes_exact():
    a = ["E 4TH ST", "W BROADWAY", "MAIN ST"]
    b = ["EAST 4 STREET", "W BROADWAY", "MAIN AVE"]
    s = match(a, b, normalizer=normalize_street)
    # "E" and "EAST" differ even normalized; exact row counts in both
    assert s.exact_match == 1
    assert s.normalized_match == 1
    s2 = match(["E 4TH ST"], ["E 4 STREET"], normalizer=normalize_street)
    assert s2.exact_match == 0 and s2.normalized_match == 1


@settings(max_examples=150)
@given(
    pairs=st.lists(
        st.tuples(
            st.sampled_from(["", "NA", " NA", "x", "y", "X"]),
            st.sampled_from(["", "NA", "x", "y"]),
        ),
        max_size=30,
    )
)
def test_pair_match_agrees_with_brute_force(pairs):
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    s = match(a, b)
    bb = sum(1 for va, vb in pairs if is_blank(va) and is_blank(vb))
    ob = sum(1 for va, vb in pairs if is_blank(va) != is_blank(vb))
    bp = sum(1 for va, vb in pairs if not is_blank(va) and not is_blank(vb))
    ex = sum(1 for va, vb in pairs if not is_blank(va) and not is_blank(vb) and va == vb)
    assert (s.rows, s.both_blank, s.one_blank, s.both_present, s.exact_match) == \
        (len(pairs), bb, ob, bp, ex)
    assert s.rows == s.both_blank + s.one_blank + s.both_present
    assert s.exact_match <= s.normalized_match <= s.both_present


def test_pair_collector_emits_only_redundant_pairs():
    got = []
    collector = PairCollector(
        [("a", "b", None), ("a", "c", None)],
        emit=got.append,
    )
    stats = feed(collector, {"a": ["x", "y", "z"], "b": ["x", "y", "z"], "c": ["other"] * 3})
    assert stats[0].verdict() == VERDICT_DUPLICATE
    assert stats[1].verdict() == VERDICT_DISTINCT
    assert [f.rule_id for f in got] == ["redundant_pair"]
    assert got[0].fields == ("a", "b")
    assert got[0].measured.value == 1.0


def test_pair_collector_requires_columns():
    with pytest.raises(ValueError):
        feed(PairCollector([("a", "missing", None)]), {"a": [], "b": []})


# ------------------------------------------------------------- concatenation

def test_concat_default_template():
    lat = ["40.7", "40.8", ""]
    lon = ["-73.9", "-73.8", "-73.7"]
    loc = ["(40.7, -73.9)", "(40.8,-73.8)", "(40.7, -73.7)"]
    s = feed(ConcatChecker("location", "latitude", "longitude"),
             {"location": loc, "latitude": lat, "longitude": lon})
    assert s.rows_considered == 2               # blank lat row is skipped
    assert s.matches == 1                       # second row lacks the space
    assert s.rate == pytest.approx(0.5)


def test_concat_exact_rendering_rate_one():
    lat = [f"40.{i}" for i in range(50)]
    lon = [f"-73.{i}" for i in range(50)]
    loc = [f"({a}, {b})" for a, b in zip(lat, lon)]
    s = concat(loc, lat, lon)
    assert s.rate == 1.0
    assert s.rows_considered == 50


def test_concat_custom_template():
    s = concat(["A - B"], ["A"], ["B"], template="{a} - {b}")
    assert s.matches == 1


def test_concat_rate_none_when_nothing_considered():
    s = concat(["", "NA"], ["x", "y"], ["z", "w"])
    assert s.rows_considered == 0 and s.rate is None


@pytest.mark.parametrize("template", ["{a} only", "{b}{b}", "({a}, {a})", "plain"])
def test_concat_template_validation(template):
    with pytest.raises(ConfigError):
        ConcatChecker("t", "a", "b", template)


def test_concat_checker_requires_columns():
    with pytest.raises(ValueError):
        feed(ConcatChecker("loc", "lat", "lon"), {"lat": [], "lon": []})


@given(
    a=st.text(alphabet="0123456789.", min_size=1, max_size=8),
    b=st.text(alphabet="0123456789.-", min_size=1, max_size=8),
)
def test_concat_detects_its_own_rendering(a, b):
    s = concat([f"({a}, {b})"], [a], [b])
    assert s.matches == s.rows_considered == 1


# ------------------------------------------------------- street normalization

@pytest.mark.parametrize("raw,expect", [
    ("E 4TH ST", "E 4 STREET"),
    ("e   4th st", "E 4 STREET"),
    ("WEST FOURTH STREET", "WEST 4 STREET"),
    ("FLATBUSH AVE", "FLATBUSH AVENUE"),
    ("OCEAN PKWY", "OCEAN PARKWAY"),
    ("101ST ST", "101 STREET"),
    ("2ND AVE", "2 AVENUE"),
    ("MAIN STREET", "MAIN STREET"),
    ("", ""),
])
def test_normalize_street_examples(raw, expect):
    assert normalize_street(raw) == expect


@pytest.mark.parametrize("raw", [
    "E 4TH ST", "FIFTH AVE", "ST MARKS PL", "101ST ST", "BLVD BLVD",
    "  spaced   out  rd ", "FOURTH FOURTH",
])
def test_normalize_street_idempotent_examples(raw):
    once = normalize_street(raw)
    assert normalize_street(once) == once


@settings(max_examples=400)
@given(st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 .-", max_size=40))
def test_normalize_street_idempotent_fuzz(raw):
    once = normalize_street(raw)
    assert normalize_street(once) == once


def test_normalizer_uppercases_and_collapses_whitespace():
    assert normalize_street("  main\tst  ") == "MAIN STREET"


def test_normalizer_rejects_non_fixed_point_tables():
    with pytest.raises(ConfigError):
        # "ST" is itself a key, so AVE -> ST would rewrite again
        StreetNormalizer(suffixes={"AVE": "ST", "ST": "STREET"})
    with pytest.raises(ConfigError):
        StreetNormalizer(ordinal_words={"FIRST": "1ST"})    # maps onto numeric ordinal
    with pytest.raises(ConfigError):
        # cross-table: the default ordinal table still owns FIRST
        StreetNormalizer(suffixes={"AV": "FIRST"})
    custom = StreetNormalizer(suffixes={"AV": "AVENUE"})
    assert custom("X AV") == "X AVENUE"
    assert custom("X AVE") == "X AVE"           # default table replaced, not merged


def test_normalization_gain():
    a = ["E 4TH ST", "MAIN ST", "OCEAN PKWY", ""]
    b = ["EAST 4 STREET", "MAIN STREET", "OCEAN PARKWAY", "X"]
    s = match(a, b, normalizer=normalize_street)
    assert s.both_present == 3
    assert s.rate_both_present == pytest.approx(0.0)
    assert s.normalized_rate == pytest.approx(2 / 3)
    assert s.normalized_rate - s.rate_both_present == pytest.approx(2 / 3)


def test_normalization_gain_empty_is_none():
    s = match([""], [""], normalizer=normalize_street)
    assert s.rate_both_present is None and s.normalized_rate is None


# -------------------------------------------------------------- dependencies

def test_fd_holds():
    borough = ["BRONX", "QUEENS", "BRONX", "", "QUEENS"]
    park = ["BRONX", "QUEENS", "BRONX", "QUEENS", "QUEENS"]
    res = feed(FDChecker("borough", "park_borough"), {"borough": borough, "park_borough": park})
    assert res.holds
    assert res.rows_checked == 4                # the blank determinant row is out
    assert res.mapping_size == 2
    assert res.violations == 0 and res.examples == []


def test_fd_violation_examples():
    a = ["X", "X", "X", "Y"]
    b = ["1", "2", "1", "3"]
    res = dependency(a, b)
    assert not res.holds
    assert res.violations == 1
    assert res.examples == [("X", "1", "2")]
    assert res.mapping_size == 2
    d = res.as_dict()
    assert d["holds"] is False and d["examples"] == [["X", "1", "2"]]


def test_fd_example_cap():
    a = ["X"] * 30
    b = ["0"] + [str(i) for i in range(1, 30)]
    res = dependency(a, b)
    assert res.violations == 29
    assert len(res.examples) == FDChecker("a", "b").result.EXAMPLE_CAP


@given(st.lists(
    st.tuples(st.sampled_from(["A", "B", "C", "NA", ""]),
              st.sampled_from(["1", "2", "", "NA"])),
    max_size=30,
))
def test_fd_holds_iff_mapping_is_single_valued(rows):
    res = dependency([r[0] for r in rows], [r[1] for r in rows])
    groups = {}
    for va, vb in rows:
        if is_blank(va) or is_blank(vb):
            continue
        groups.setdefault(va, set()).add(vb)
    assert res.holds == all(len(s) == 1 for s in groups.values())
    assert res.mapping_size == len(groups)
    assert res.rows_checked == sum(
        1 for va, vb in rows if not is_blank(va) and not is_blank(vb)
    )


def test_fd_checker_requires_columns():
    with pytest.raises(ValueError):
        feed(FDChecker("a", "zzz"), {"a": [], "b": []})
