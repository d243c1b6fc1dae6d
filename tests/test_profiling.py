"""Profiling tests: Counter oracles, sketch guarantees, tier boundaries."""

import heapq
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import odqa
from odqa.ingest import BATCH_ROWS, DEFAULT_CLASSIFIER, open_table, stream_rows
from odqa.profiling import (
    ColumnProfile,
    ConcentrationResult,
    ProfileCollector,
    SpaceSavingSketch,
    TIER_FEW,
    TIER_MOSTLY,
    TIER_PARTIAL,
    concentration,
    missing_tier,
    tier_table,
    top_k,
)

from conftest import AUDIT_CONFIG_TEMPLATE, feed


def collect(headers, rows, agency_field=None, **kw):
    """Profiles of rows; emit, if given, also receives the stream's findings."""
    columns = {name: [row[i] for row in rows] for i, name in enumerate(headers)}
    return feed(ProfileCollector(**kw), columns, agency_field=agency_field, emit=kw.get("emit"))


def column_oracle(rows, i):
    """Brute-force recomputation of one column's profile numbers."""
    missing = Counter()
    counts = Counter()
    chars = 0
    for row in rows:
        v = row[i]
        chars += len(v)
        kind = DEFAULT_CLASSIFIER.kind_of(v)
        if kind is not None:
            missing[kind] += 1
        else:
            counts[v] += 1
    return missing, counts, chars


ROWS = [
    ["NYPD", "Noise", "Open"],
    ["NYPD", "Noise", ""],
    ["DOT", "Pothole", "NA"],
    ["", "Noise", "Closed"],
    ["NYPD", "  ", "Closed"],
    ["DOT", "null", "Closed"],
]


def test_collector_matches_counter_oracle():
    profiles = collect(["agency", "complaint", "status"], ROWS)
    for i, prof in enumerate(profiles):
        missing, counts, chars = column_oracle(ROWS, i)
        assert prof.total == len(ROWS)
        assert prof.missing == dict(missing)
        assert prof.present == sum(counts.values())
        assert prof.distinct == len(counts)
        assert prof.raw_chars == chars
        assert not prof.approximate
        assert prof.exact_counts == dict(counts)
        expect_top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        assert prof.top_values == expect_top


def test_raw_chars_includes_sentinel_text():
    # "NA" and "  " are blank readings but their bytes are still stored in
    # the file, so size accounting keeps them
    profiles = collect(["a"], [["NA"], ["  "], [""], ["xy"]])
    assert profiles[0].raw_chars == 2 + 2 + 0 + 2
    assert profiles[0].present == 1


def test_per_agency_presence():
    profiles = collect(["agency", "complaint", "status"], ROWS, agency_field="agency")
    status = profiles[2]
    # row 4 has a blank agency: its Closed reading is unattributed, and
    # blank status cells are never attributed at all
    assert status.per_agency_present == {"NYPD": 2, "DOT": 1}
    agency_prof = profiles[0]
    assert agency_prof.per_agency_present == {"NYPD": 3, "DOT": 2}


def test_missing_agency_field_emits_finding():
    got = []
    collect(["a"], [["x"]], agency_field="agency", emit=got.append)
    assert [f.rule_id for f in got] == ["agency_field_missing"]


@settings(max_examples=60)
@given(st.lists(
    st.lists(st.sampled_from(["", "NA", "N/A", "null", "  ", "x", "y", "zz", "0"]),
             min_size=2, max_size=2),
    max_size=30,
))
def test_collector_oracle_property(rows):
    profiles = collect(["a", "b"], rows)
    for i in range(2):
        missing, counts, chars = column_oracle(rows, i)
        p = profiles[i]
        assert p.missing == dict(missing)
        assert p.present == sum(counts.values())
        assert p.distinct == len(counts)
        assert p.raw_chars == chars
        assert p.total == len(rows)
        assert p.blank_total == sum(missing.values())


# ------------------------------------------------------------------ overflow

def test_overflow_switches_to_sketch():
    got = []
    # 4-row batches: the second passes the cap and installs the first's exact counts
    (p,) = feed(ProfileCollector(distinct_cap=3, sketch_capacity=10, emit=got.append),
                {"v": list("aaabbcde")}, batch_rows=4)
    assert p.approximate
    assert p.distinct == 3                 # the cap, as a lower bound
    assert p.exact_counts is None
    # the sketch starts from the exact counts, so small streams stay exact
    assert p.top_values == [("a", 3), ("b", 2), ("c", 1), ("d", 1), ("e", 1)]
    assert [f.rule_id for f in got] == ["approximate_profile"]
    assert got[0].measured.value == 3
    assert got[0].measured.unit == "distinct_lower_bound"


def test_overflow_profile_excluded_from_exact_reporting():
    rows = [[c] for c in "abcdefgh"]
    profiles = collect(["v"], rows, distinct_cap=4, sketch_capacity=4)
    assert profiles[0].approximate
    d = profiles[0].as_dict()
    assert "exact_counts" not in d
    assert d["approximate"] is True


def test_distinct_cap_validation():
    with pytest.raises(ValueError):
        ProfileCollector(distinct_cap=0)
    with pytest.raises(ValueError):
        SpaceSavingSketch(0)


def test_sketch_capacity_is_checked_at_construction():
    # not first when a column passes the cap mid-stream, or never
    with pytest.raises(ValueError, match="sketch_capacity must be positive"):
        ProfileCollector(sketch_capacity=0)


# --------------------------------------------------------------- space-saving

def test_sketch_exact_while_under_capacity():
    sk = SpaceSavingSketch(4)
    sk.merge(Counter("aab"))
    sk.merge(Counter("bbc"))
    assert sk.top(10) == [("b", 3), ("a", 2), ("c", 1)]


def test_sketch_prune_subtracts_the_threshold_and_ties_sort_by_value():
    sk = SpaceSavingSketch(2)
    sk.merge({"z": 3, "y": 3, "x": 2})           # 3 counters: no prune below 2 x 2
    assert len(sk) == 3
    sk.merge({"w": 1, "v": 1})                   # 5 counters: t is the 3rd largest, 2
    assert len(sk) == 2
    assert sk.top(5) == [("y", 3), ("z", 3)]     # counter 1 + floor 2, ties by value
    sk.merge({"x": 2})
    assert len(sk) == 3
    assert sk.top(5) == [("x", 4)]               # top prunes past 2 counters: t is 1, y and z go


def split(stream, cuts):
    """stream cut at the given positions into Counters, one per batch."""
    bounds = [0, *sorted(c % (len(stream) + 1) for c in cuts), len(stream)]
    return [Counter(stream[lo:hi]) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


@settings(max_examples=200)
@given(
    stream=st.lists(st.sampled_from("abcdefghij"), max_size=80),
    cuts=st.lists(st.integers(min_value=0), max_size=12),
    capacity=st.integers(min_value=1, max_value=6),
)
def test_sketch_guarantees(stream, cuts, capacity):
    sk = SpaceSavingSketch(capacity)
    for batch in split(stream, cuts):
        sk.merge(batch)
        assert len(sk) <= 2 * capacity
    truth = Counter(stream)
    slack = len(stream) / (capacity + 1)
    items = dict(sk.top(2 * capacity))
    assert len(items) <= capacity
    for v, reported in items.items():
        assert truth[v] <= reported <= truth[v] + slack
    for v, n in truth.items():
        if n > slack:
            assert v in items, (v, n)


@given(
    stream=st.lists(st.sampled_from("abcdef"), max_size=60),
    cuts=st.lists(st.integers(min_value=0), max_size=8),
)
def test_sketch_determinism(stream, cuts):
    """The same batches give the same sketch whatever order each batch's
    values were counted in."""
    a = SpaceSavingSketch(2)
    b = SpaceSavingSketch(2)
    for batch in split(stream, cuts):
        a.merge(batch)
        b.merge(dict(reversed(batch.items())))
    assert a.top(4) == b.top(4)


def test_sketch_depends_on_batch_boundaries():
    # one sketch counter: with 4-row batches the prune of aabb|cddd leaves
    # d at 1 over a floor of 2; with 2-row batches cd is pruned away with
    # a and b, and dd arrives after it on a floor of 2
    values = list("aabbcddd")
    got = {
        rows: feed(ProfileCollector(distinct_cap=1, sketch_capacity=1), {"v": values},
                   batch_rows=rows)[0].top_values
        for rows in (2, 4, BATCH_ROWS)
    }
    assert got == {2: [("d", 4)], 4: [("d", 3)], BATCH_ROWS: [("d", 3)]}


@settings(max_examples=300)
@given(
    counts=st.dictionaries(st.text(alphabet="abcd", max_size=3), st.integers(min_value=1, max_value=6),
                           max_size=40),
    k=st.integers(min_value=0, max_value=25),
)
def test_top_k_matches_nsmallest_with_a_key(counts, k):
    want = heapq.nsmallest(k, counts.items(), key=lambda kv: (-kv[1], kv[0]))
    assert top_k(counts, k) == want


def test_audit_report_does_not_depend_on_the_hash_seed(fixture_10k, tmp_path):
    config = tmp_path / "capped.yaml"
    config.write_text(AUDIT_CONFIG_TEMPLATE.format(
        input=fixture_10k.csv_path,
        dictionary=fixture_10k.dictionary_path,
        zips=fixture_10k.zip_reference_path,
        out_dir=tmp_path / "unused",
    ) + "profile: {distinct_cap: 1000, sketch_capacity: 50}\n", encoding="utf-8")
    src = str(Path(odqa.__file__).parents[1])
    reports = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / f"seed{seed}"
        proc = subprocess.run(
            [sys.executable, "-m", "odqa", "audit", "--config", str(config), "--out", str(out),
             "--format", "json"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode in (0, 1), proc.stderr[-2000:]
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    profiles = {p["field"]: p for p in json.loads(reports[0])["sections"]["profiles"]}
    assert profiles["unique_key"]["approximate"]


# -------------------------------------------------------------------- tiers

@pytest.mark.parametrize("pct,tier", [
    (100.0, TIER_MOSTLY),
    (90.0, TIER_MOSTLY),               # boundary is closed
    (89.9999, TIER_PARTIAL),
    (50.0, TIER_PARTIAL),
    (2.0001, TIER_PARTIAL),
    (2.0, TIER_FEW),                   # boundary is closed
    (0.0, TIER_FEW),
])
def test_tier_boundaries(pct, tier):
    assert missing_tier(pct) == tier


def make_profile(field, total, present):
    return ColumnProfile(
        field=field, total=total, present=present, missing={},
        distinct=0, approximate=False, top_values=[],
        per_agency_present={}, raw_chars=0,
    )


def test_tier_table_sorts_emptiest_first():
    rows = tier_table([
        make_profile("a", 100, 98),
        make_profile("b", 100, 5),
        make_profile("c", 100, 5),
        make_profile("d", 100, 100),
    ])
    assert [(r.field, r.tier) for r in rows] == [
        ("b", TIER_MOSTLY), ("c", TIER_MOSTLY), ("a", TIER_FEW), ("d", TIER_FEW),
    ]
    assert rows[0].blank_pct == 95.0


def test_zero_row_profile_is_few():
    p = make_profile("a", 0, 0)
    assert p.blank_pct == 0.0
    assert p.tier == TIER_FEW


def test_mostly_empty_finding():
    got = []
    rows = [["x" if i == 0 else ""] for i in range(20)]
    collect(["sparse"], rows, emit=got.append)
    assert [f.rule_id for f in got] == ["mostly_empty_field"]
    assert got[0].measured.value == 95.0
    assert got[0].measured.unit == "percent_blank"


# ------------------------------------------------------------- concentration

def test_concentration_known_values():
    r = concentration("complaint", [("a", 50), ("b", 30), ("c", 20)], 2)
    assert r.top_k_share == pytest.approx(0.8)
    assert r.cumulative == pytest.approx((0.5, 0.8, 1.0))


def test_concentration_tie_break_by_value():
    r = concentration("f", [("b", 10), ("a", 10)], 1)
    # ties order ascending by value, so the first cumulative step is a's
    assert r.cumulative[0] == pytest.approx(0.5)
    assert r.top_k_share == pytest.approx(0.5)


def test_concentration_k_saturates():
    r = concentration("f", [("a", 1), ("b", 1)], 10)
    assert r.top_k_share == pytest.approx(1.0)


@pytest.mark.parametrize("freqs,k", [
    ([("a", 1)], 0),
    ([("a", -1)], 1),
    ([("a", 0), ("b", 0)], 1),
    ([], 1),
])
def test_concentration_rejects(freqs, k):
    with pytest.raises(ValueError):
        concentration("f", freqs, k)


@given(
    freqs=st.lists(
        st.tuples(st.text(alphabet="abc", min_size=1, max_size=2),
                  st.integers(min_value=0, max_value=20)),
        min_size=1, max_size=10,
    ),
    k=st.integers(min_value=1, max_value=12),
)
def test_concentration_properties(freqs, k):
    if sum(n for _, n in freqs) == 0:
        with pytest.raises(ValueError):
            concentration("f", freqs, k)
        return
    r = concentration("f", freqs, k)
    assert isinstance(r, ConcentrationResult)
    assert all(b >= a - 1e-12 for a, b in zip(r.cumulative, r.cumulative[1:]))
    assert r.cumulative[-1] == pytest.approx(1.0)
    assert 0.0 < r.top_k_share <= 1.0 + 1e-12
    assert r.top_k_share == pytest.approx(r.cumulative[min(k, len(r.cumulative)) - 1])


# ----------------------------------------------------------- file integration

def test_collector_through_stream(write_csv):
    p = write_csv("t.csv", """\
        Agency,Status
        NYPD,Open
        DOT,
        NYPD,Closed
        """)
    table = open_table(p)
    pc = ProfileCollector()
    stream_rows(table, [pc], agency_field="agency")
    prof = {q.field: q for q in pc.profiles}
    assert prof["status"].present == 2
    assert prof["status"].missing == {"empty": 1}
    assert prof["status"].per_agency_present == {"NYPD": 2}
    assert prof["agency"].total == 3


# ------------------------------------------------------------------ batching

def reference_profile(values, agencies, cap, k):
    """One column counted cell by cell with a Counter. Past the cap the
    column is approximate, and the true counts are returned for checking
    the sketch's bounds."""
    kinds = [DEFAULT_CLASSIFIER.kind_of(v) for v in values]
    present = [v for v, kind in zip(values, kinds) if kind is None]
    counts = Counter(present)
    approximate = len(counts) > cap
    per_agency = Counter(
        a for a, kind in zip(agencies, kinds)
        if kind is None and DEFAULT_CLASSIFIER.kind_of(a) is None
    )
    want = {
        "total": len(values),
        "present": len(present),
        "missing": dict(Counter(kind for kind in kinds if kind is not None)),
        "distinct": cap if approximate else len(counts),
        "approximate": approximate,
        "per_agency_present": dict(per_agency),
        "raw_chars": sum(map(len, values)),
        "exact_counts": None if approximate else dict(counts),
    }
    if not approximate:
        want["top_values"] = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return want, counts


def batch_columns(n_rows, seed=7):
    """A skewed column, a wide one, a mostly blank one and an agency."""
    rnd = random.Random(seed)
    blanks = ["", "NA", "N/A", "null", "  ", "<NA>"]
    skewed = [rnd.choice(blanks) if rnd.random() < 0.1 else f"s{int(rnd.paretovariate(1.2))}"
              for _ in range(n_rows)]
    wide = [f"w{rnd.randrange(3 * n_rows + 1)}" for _ in range(n_rows)]
    sparse = [rnd.choice(["x", "y"]) if rnd.random() < 0.05 else "" for _ in range(n_rows)]
    agency = [rnd.choice(["NYPD", "DOT", "DSNY", "", "NA"]) for _ in range(n_rows)]
    return {"agency": agency, "skewed": skewed, "wide": wide, "sparse": sparse}


@pytest.mark.parametrize("n_rows,cap", [
    (0, 10), (1, 10), (255, 1000), (256, 1000), (257, 1000),
    (257, 30),       # "wide" passes the cap in the middle of the first batch
    (700, 400),      # and here in the middle of the second
    (700, 5),        # "skewed" passes it too; "wide" runs long in the sketch
])
def test_batched_profiles_match_cell_by_cell_reference(n_rows, cap):
    columns = batch_columns(n_rows)
    collector = ProfileCollector(distinct_cap=cap, sketch_capacity=20, top_k=7)
    profiles = feed(collector, columns, agency_field="agency")
    for i, (name, values) in enumerate(columns.items()):
        want, truth = reference_profile(values, columns["agency"], cap, 7)
        p = profiles[i]
        got = {key: getattr(p, key) for key in want}
        assert got == want, name
        if p.approximate:
            kept = collector._sketches[i]
            reported = dict(kept.top(20))
            assert p.top_values == kept.top(7)
            slack = p.present / 21
            for v, n in reported.items():
                assert truth[v] <= n <= truth[v] + slack, (name, v)
            assert {v for v, n in truth.items() if n > slack} <= reported.keys(), name
    if n_rows >= 257 and cap <= 400:
        assert profiles[2].approximate


@pytest.mark.parametrize("cap,approximate", [(255, True), (256, False)])
def test_cap_met_or_passed_by_the_last_row_of_a_batch(cap, approximate):
    values = [f"v{j}" for j in range(256)]
    (p,) = feed(ProfileCollector(distinct_cap=cap, sketch_capacity=300), {"v": values})
    assert p.approximate is approximate
    assert p.distinct == cap
