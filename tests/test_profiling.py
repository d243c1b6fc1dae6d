"""Profiling tests: Counter oracles, sketch guarantees, tier boundaries."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odqa.ingest import DEFAULT_CLASSIFIER, open_table, stream_rows
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
)

from conftest import feed


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
    rows = [["a"], ["a"], ["a"], ["b"], ["b"], ["c"], ["d"], ["e"]]
    got = []
    profiles = collect(["v"], rows, distinct_cap=3, sketch_capacity=10, emit=got.append)
    p = profiles[0]
    assert p.approximate
    assert p.distinct == 3                 # the cap, as a lower bound
    assert p.exact_counts is None
    # sketch was seeded from the exact table, so small streams stay exact
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


# --------------------------------------------------------------- space-saving

def test_sketch_exact_while_under_capacity():
    sk = SpaceSavingSketch(4)
    for v in "aabbbc":
        sk.update(v)
    assert sk.top(10) == [("b", 3), ("a", 2), ("c", 1)]
    assert sk.error_of("b") == 0


def test_sketch_eviction_is_fifo_on_ties():
    sk = SpaceSavingSketch(2)
    sk.update("a")
    sk.update("b")
    sk.update("c")                     # a and b tie at 1; a is older, evicted
    assert sk.top(2) == [("c", 2), ("b", 1)]
    assert sk.error_of("c") == 1
    sk.update("a")                     # b is now the only minimum
    assert sk.top(2) == [("a", 2), ("c", 2)]
    assert sk.error_of("a") == 1


@settings(max_examples=100)
@given(
    stream=st.lists(st.sampled_from("abcdefg"), max_size=60),
    capacity=st.integers(min_value=1, max_value=8),
)
def test_sketch_guarantees(stream, capacity):
    sk = SpaceSavingSketch(capacity)
    for v in stream:
        sk.update(v)
    truth = Counter(stream)
    items = dict(sk.top(capacity))
    assert len(items) <= capacity
    # total mass is conserved
    assert sum(items.values()) == len(stream)
    for v, est in items.items():
        # estimates never undercount, and est - error is a lower bound
        assert est >= truth[v]
        assert est - sk.error_of(v) <= truth[v]
    # classic heavy-hitter guarantee: anything above N/m is retained
    for v, n in truth.items():
        if n > len(stream) / capacity:
            assert v in items, (v, n)


@given(st.lists(st.sampled_from("abcd"), max_size=40))
def test_sketch_determinism(stream):
    a = SpaceSavingSketch(3)
    b = SpaceSavingSketch(3)
    for v in stream:
        a.update(v)
    for v in stream:
        b.update(v)
    assert a.top(3) == b.top(3)
    assert all(a.error_of(v) == b.error_of(v) for v, _ in a.top(3))


def test_sketch_seed_installs_heaviest():
    sk = SpaceSavingSketch(2)
    sk.seed({"a": 5, "b": 3, "c": 1})
    assert sk.top(5) == [("a", 5), ("b", 3)]
    sk.update("b")
    assert sk.top(5) == [("a", 5), ("b", 4)]


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

def reference_profile(values, agencies, cap, capacity, top_k):
    """One column counted cell by cell: Counter up to the row that would
    pass the cap, then a sketch seeded there and updated in row order."""
    kinds = [DEFAULT_CLASSIFIER.kind_of(v) for v in values]
    present = [v for v, kind in zip(values, kinds) if kind is None]
    seen: set[str] = set()
    crossing = len(present)
    for j, v in enumerate(present):
        if v not in seen and len(seen) == cap:
            crossing = j
            break
        seen.add(v)
    counts = Counter(present[:crossing])
    sketch = None
    if crossing < len(present):
        sketch = SpaceSavingSketch(capacity)
        sketch.seed(dict(counts))
        for v in present[crossing:]:
            sketch.update(v)
    per_agency = Counter(
        a for a, kind in zip(agencies, kinds)
        if kind is None and DEFAULT_CLASSIFIER.kind_of(a) is None
    )
    return {
        "total": len(values),
        "present": len(present),
        "missing": dict(Counter(kind for kind in kinds if kind is not None)),
        "distinct": cap if sketch else len(counts),
        "approximate": sketch is not None,
        "top_values": sketch.top(top_k) if sketch else sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k],
        "per_agency_present": dict(per_agency),
        "raw_chars": sum(map(len, values)),
        "exact_counts": None if sketch else dict(counts),
    }, sketch


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
        want, sketch = reference_profile(values, columns["agency"], cap, 20, 7)
        p = profiles[i]
        got = {key: getattr(p, key) for key in want}
        assert got == want, name
        if sketch is not None:
            kept = collector._sketches[i]
            assert kept.top(20) == sketch.top(20)
            assert [kept.error_of(v) for v, _ in sketch.top(20)] == [sketch.error_of(v) for v, _ in sketch.top(20)]
    if n_rows >= 257 and cap <= 400:
        assert profiles[2].approximate


@pytest.mark.parametrize("cap,approximate", [(255, True), (256, False)])
def test_cap_met_or_passed_by_the_last_row_of_a_batch(cap, approximate):
    values = [f"v{j}" for j in range(256)]
    (p,) = feed(ProfileCollector(distinct_cap=cap, sketch_capacity=300), {"v": values})
    assert p.approximate is approximate
    assert p.distinct == cap
