"""Reduction planning, application, and reconstruction."""

import csv
import filecmp
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from odqa.errors import PlanError
from odqa.ingest import DEFAULT_CLASSIFIER, open_table, stream_rows
from odqa.profiling import ProfileCollector
from odqa.redundancy import ConcatChecker, PairCollector, PairMatchStats
from odqa.reduce import (
    EncodeCapExceeded,
    PlanAction,
    PlanPolicy,
    ReductionPlan,
    ValueDictionary,
    apply_plan,
    build_plan,
    code_width_for,
    reconstruct_table,
)

from conftest import feed


def profile_rows(headers, rows, **kw):
    columns = {name: [row[i] for row in rows] for i, name in enumerate(headers)}
    return feed(ProfileCollector(**kw), columns)


def dup_stats(a, b, n=10):
    return PairMatchStats(a, b, n, 0, 0, n, n, n)


# ------------------------------------------------------------------ encoding

@pytest.mark.parametrize("n,width", [
    (0, 1), (1, 1), (2, 1), (9, 1), (10, 1), (11, 2), (100, 2), (101, 3), (1000, 3),
])
def test_code_width(n, width):
    assert code_width_for(n) == width


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_code_width_fits_all_codes(n):
    w = code_width_for(n)
    assert w >= 1
    if n:
        assert len(str(n - 1)) <= w
        # minimal: one digit fewer cannot express the largest code
        assert w == 1 or len(str(n - 1)) > w - 1


def encode_via_apply(values, out_dir):
    """Apply a plan that only encodes column v; returns (dictionary, encoded cells).

    Apply writes every missing token as an empty cell, so an encoded "NA"
    does not round-trip. The assertions on "" below pin that lossy
    behaviour until missing tokens get dictionary entries of their own.
    """
    out_dir = Path(out_dir)
    src = out_dir / "source.csv"
    with open(src, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["k", "v"])
        w.writerows([f"K{i}", v] for i, v in enumerate(values))
    distinct = {v for v in values if DEFAULT_CLASSIFIER.kind_of(v) is None}
    encode = PlanAction("encode", "v", "test", True, 0, {"code_width": code_width_for(len(distinct))})
    plan = ReductionPlan(
        baseline_bytes=src.stat().st_size, row_count=len(values), headers=["k", "v"], actions=[encode],
    )
    applied = apply_plan(open_table(src), plan, out_dir / "out")
    with open(applied.main_path, newline="", encoding="utf-8") as fh:
        encoded = [row[1] for row in list(csv.reader(fh))[1:]]
    return ValueDictionary.read_csv("v", applied.dictionary_paths["v"]), encoded


def test_encode_column_first_appearance_order(tmp_path):
    vd, encoded = encode_via_apply(["Closed", "Open", "Closed", "", "NA", "Pending"], tmp_path)
    assert vd.entries == ("Closed", "Open", "Pending")
    assert encoded == ["0", "1", "0", "", "", "2"]
    assert vd.code_width == 1
    assert vd.code_list() == ["0", "1", "2"]


def test_encode_column_pads_to_width(tmp_path):
    vd, encoded = encode_via_apply([f"v{i}" for i in range(12)], tmp_path)
    assert vd.code_width == 2
    assert encoded[0] == "00" and encoded[11] == "11"


@given(st.lists(st.sampled_from(["a", "bb", "ccc", "", "NA", "dddd"]), max_size=40))
def test_encode_roundtrip(values):
    with tempfile.TemporaryDirectory() as tmp:
        vd, encoded = encode_via_apply(values, tmp)
    for raw, code in zip(values, encoded, strict=True):
        if raw in ("", "NA"):
            assert code == ""
        else:
            assert vd.entries[int(code)] == raw
            assert len(code) == vd.code_width


def test_value_dictionary_csv_roundtrip(tmp_path):
    vd = ValueDictionary("status", ("Open", "Closed", "a,b", 'say "hi"'))
    p = tmp_path / "status.dict.csv"
    vd.write_csv(p)
    again = ValueDictionary.read_csv("status", p)
    assert again == vd


def test_value_dictionary_rejects_malformed(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("code,value\n0,a\n2,b\n", encoding="utf-8")
    with pytest.raises(PlanError):
        ValueDictionary.read_csv("f", p)
    p.write_text("value,code\n", encoding="utf-8")
    with pytest.raises(PlanError):
        ValueDictionary.read_csv("f", p)


# ------------------------------------------------------------------ planning

def test_auto_drop_needs_perfect_match_and_equal_masks():
    profiles = profile_rows(["a", "b"], [["x", "x"], ["y", "y"]])
    plan = build_plan(
        profiles, [dup_stats("a", "b", 2)],
        baseline_bytes=100, row_count=2,
    )
    assert [(a.kind, a.field) for a in plan.actions] == [("drop", "b")]
    assert plan.actions[0].lossless
    assert plan.actions[0].details == {"duplicate_of": "a"}

    near = PairMatchStats("a", "b", 100, 0, 0, 100, 99, 99)
    assert build_plan(profiles, [near], baseline_bytes=100, row_count=2).actions == []
    unequal_masks = PairMatchStats("a", "b", 100, 0, 5, 95, 95, 95)
    assert build_plan(profiles, [unequal_masks], baseline_bytes=100, row_count=2).actions == []


def test_drop_estimate_is_column_footprint():
    rows = [["k1", "abc"], ["k2", "de"]]
    profiles = profile_rows(["a", "b"], rows)
    plan = build_plan(profiles, [dup_stats("a", "b", 2)], baseline_bytes=100, row_count=2)
    # cell text (5) + one separator per row (2) + header text + its separator
    assert plan.actions[0].estimated_bytes_saved == 5 + 2 + len("b") + 1


def test_lossy_drop_requires_acknowledgement():
    profiles = profile_rows(["a", "b"], [["x", "y"]])
    with pytest.raises(PlanError, match="allow_lossy"):
        build_plan(profiles, [], PlanPolicy(drop_fields=["b"]),
                   baseline_bytes=10, row_count=1)
    plan = build_plan(
        profiles, [], PlanPolicy(drop_fields=["b"], allow_lossy=["b"]),
        baseline_bytes=10, row_count=1,
    )
    assert plan.actions[0].lossless is False
    assert plan.actions[0].reason == "requested in config"


def test_requested_drop_of_an_unknown_field_names_the_field():
    profiles = profile_rows(["a", "b"], [["x", "y"]])
    with pytest.raises(PlanError, match="^drop: unknown field 'nope'$"):
        build_plan(profiles, [], PlanPolicy(drop_fields=["nope"]), baseline_bytes=10, row_count=1)


def test_requested_drop_upgrades_to_lossless_when_duplicate():
    profiles = profile_rows(["a", "b"], [["x", "x"]])
    plan = build_plan(
        profiles, [dup_stats("a", "b", 1)],
        PlanPolicy(auto_drop_duplicates=False, drop_fields=["b"]),
        baseline_bytes=10, row_count=1,
    )
    assert plan.actions[0].lossless is True


def test_protected_fields_refuse_everything():
    profiles = profile_rows(["k", "b"], [["1", "x"]])
    with pytest.raises(PlanError, match="protected"):
        build_plan(profiles, [dup_stats("k", "b", 1), dup_stats("b", "k", 1)],
                   baseline_bytes=10, row_count=1, key_field="k")
    with pytest.raises(PlanError, match="protected"):
        build_plan(profiles, [], PlanPolicy(segregate_fields=["k"]),
                   baseline_bytes=10, row_count=1, key_field="k")
    with pytest.raises(PlanError, match="protected"):
        build_plan(profiles, [], PlanPolicy(encode_fields=["k"]),
                   baseline_bytes=10, row_count=1, key_field="k")


def test_sparse_threshold_boundary():
    # 1 present out of 100 is exactly 99.0% blank: in
    rows = [["k", "v" if i == 0 else ""] for i in range(100)]
    profiles = profile_rows(["k", "sparse"], rows)
    plan = build_plan(profiles, [], baseline_bytes=1000, row_count=100, key_field="k")
    assert [(a.kind, a.field) for a in plan.actions] == [("segregate", "sparse")]
    assert plan.actions[0].details["blank_pct"] == 99.0

    # 2 present out of 100 is 98% blank: out
    rows = [["k", "v" if i < 2 else ""] for i in range(100)]
    profiles = profile_rows(["k", "sparse"], rows)
    plan = build_plan(profiles, [], baseline_bytes=1000, row_count=100, key_field="k")
    assert plan.actions == []


def test_auto_plan_skips_a_column_of_missing_tokens(tmp_path):
    # NA reads as blank, but the sidecar keeps every non-empty cell with its
    # row ordinal, so here it would outweigh the column it replaces
    src = tmp_path / "na.csv"
    src.write_text("k,s\n" + "".join(f"K{i},NA\n" for i in range(1, 1001)), encoding="utf-8")
    table = open_table(src)
    pc = ProfileCollector()
    stream = stream_rows(table, [pc])
    sizes = {"baseline_bytes": table.byte_size, "row_count": stream.delivered}
    assert build_plan(pc.profiles, [], **sizes).actions == []

    forced = build_plan(pc.profiles, [], PlanPolicy(segregate_fields=["s"]), **sizes)
    (action,) = forced.actions
    applied = apply_plan(table, forced, tmp_path / "out")
    sidecar = applied.sidecar_paths["s"].stat().st_size
    assert action.estimated_bytes_saved <= sidecar <= action.details["estimated_sidecar_bytes"]


def test_explicit_segregate_list_overrides_auto():
    rows = [["k", "x", ""] for _ in range(10)]
    profiles = profile_rows(["k", "dense", "empty"], rows)
    plan = build_plan(
        profiles, [], PlanPolicy(segregate_fields=["dense"]),
        baseline_bytes=100, row_count=10, key_field="k",
    )
    assert [(a.kind, a.field) for a in plan.actions] == [("segregate", "dense")]


def test_encode_action_and_refusals():
    rows = [[f"k{i}", "LONG VALUE A" if i % 2 else "LONG VALUE B", "A"] for i in range(10)]
    profiles = profile_rows(["k", "wide", "narrow"], rows)
    got = []
    plan = build_plan(
        profiles, [], PlanPolicy(encode_fields=["wide", "narrow"]),
        baseline_bytes=1000, row_count=10, key_field="k", emit=got.append,
    )
    assert [(a.kind, a.field) for a in plan.actions] == [("encode", "wide")]
    act = plan.actions[0]
    assert act.details["code_width"] == 1
    assert act.estimated_bytes_saved == 12 * 10 - 10 * 1
    # single-character values cannot shrink to a one-digit code
    assert [f.rule_id for f in got] == ["encode_refused"]
    assert "not wider" in got[0].message


def test_encode_refused_past_cap_and_for_approximate():
    rows = [[f"k{i}", f"value {i}"] for i in range(10)]
    profiles = profile_rows(["k", "v"], rows)
    got = []
    plan = build_plan(
        profiles, [], PlanPolicy(encode_fields=["v"], encode_cap=5),
        baseline_bytes=100, row_count=10, emit=got.append,
    )
    assert plan.actions == []
    assert "cap 5" in got[0].message

    approx = profile_rows(["v"], [[f"value {i}"] for i in range(10)], distinct_cap=4)
    got2 = []
    plan = build_plan(
        approx, [], PlanPolicy(encode_fields=["v"]),
        baseline_bytes=100, row_count=10, emit=got2.append,
    )
    assert plan.actions == []
    assert "at least 4" in got2[0].message


def test_unknown_field_in_policy():
    profiles = profile_rows(["a"], [["x"]])
    with pytest.raises(PlanError, match="unknown field"):
        build_plan(profiles, [], PlanPolicy(encode_fields=["ghost"]),
                   baseline_bytes=10, row_count=1)


def test_actions_sorted_by_kind_then_field():
    rows = [["k", "x", "x", "", "LONG TEXT HERE"] for _ in range(100)]
    profiles = profile_rows(["k", "a", "b", "empty", "v"], rows)
    plan = build_plan(
        profiles, [dup_stats("a", "b", 100)],
        PlanPolicy(encode_fields=["v"]),
        baseline_bytes=10000, row_count=100, key_field="k",
    )
    assert [(a.kind, a.field) for a in plan.actions] == [
        ("drop", "b"), ("segregate", "empty"), ("encode", "v"),
    ]
    assert plan.estimated_total_saved == sum(a.estimated_bytes_saved for a in plan.actions)
    assert plan.estimated_pct == pytest.approx(100.0 * plan.estimated_total_saved / 10000)


def test_raw_headers_validated_and_kept():
    profiles = profile_rows(["a", "b"], [["x", "y"]])
    with pytest.raises(PlanError, match="raw_headers"):
        build_plan(profiles, [], baseline_bytes=10, row_count=1, raw_headers=["A"])
    plan = build_plan(profiles, [], baseline_bytes=10, row_count=1, raw_headers=["A", "B"])
    assert plan.raw_headers == ["A", "B"]


def test_plan_json_roundtrip(tmp_path):
    profiles = profile_rows(["k", "a", "b"], [["1", "x", "x"], ["2", "y", "y"]])
    plan = build_plan(
        profiles, [dup_stats("a", "b", 2)],
        baseline_bytes=50, row_count=2, key_field="k", raw_headers=["K", "A", "B"],
    )
    p = tmp_path / "plan.json"
    plan.write_json(p)
    again = ReductionPlan.read_json(p)
    assert again.as_dict() == plan.as_dict()
    assert again.raw_headers == ["K", "A", "B"]


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d["actions"][0].update(kind="shred"), "unknown action kind"),
    (lambda d: d["actions"][0].update(field="ghost"), "unknown field"),
    (lambda d: d["actions"].append(dict(d["actions"][0])), "more than one"),
    (lambda d: d.pop("row_count"), "malformed plan"),
])
def test_plan_read_rejects_bad_documents(tmp_path, mutate, fragment):
    profiles = profile_rows(["a", "b"], [["x", "x"]])
    plan = build_plan(profiles, [dup_stats("a", "b", 1)], baseline_bytes=10, row_count=1)
    doc = plan.as_dict()
    mutate(doc)
    p = tmp_path / "plan.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(PlanError, match=fragment):
        ReductionPlan.read_json(p)


# ------------------------------------------------------- apply / reconstruct

COMPLAINTS = ["NOISE COMPLAINT", "HEAT OUTAGE", "POTHOLE REPORT", "ILLEGAL PARKING", "WATER LEAK"]


def write_source(path, rows=120):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["Unique Key", "Borough", "Park Borough", "Taxi Pickup",
                    "Complaint", "Latitude", "Longitude", "Location"])
        for i in range(rows):
            borough = "" if i % 17 == 5 else ["BRONX", "QUEENS", "BROOKLYN"][i % 3]
            lat = f"40.{700 + i}"
            lon = f"-73.{900 + i}"
            w.writerow([
                f"K{i:04d}", borough, borough,
                "YELLOW" if i == 7 else "",
                COMPLAINTS[i % 5], lat, lon, f"({lat}, {lon})",
            ])
    return path


def analyzed(path):
    table = open_table(path)
    pc = ProfileCollector()
    pairs = PairCollector([("borough", "park_borough", None)])
    concat = ConcatChecker("location", "latitude", "longitude")
    stream = stream_rows(table, [pc, pairs, concat])
    return table, pc.finish(), pairs.finish(), [concat.finish()], stream


def test_plan_apply_reconstruct_end_to_end(tmp_path):
    src = write_source(tmp_path / "source.csv")
    table, profiles, pair_stats, concat_stats, stream = analyzed(src)
    plan = build_plan(
        profiles, pair_stats, PlanPolicy(encode_fields=["complaint"]),
        baseline_bytes=table.byte_size, row_count=stream.delivered,
        key_field="unique_key", concat_stats=concat_stats,
        raw_headers=table.raw_headers,
    )
    assert [(a.kind, a.field) for a in plan.actions] == [
        ("drop", "location"), ("drop", "park_borough"),
        ("segregate", "taxi_pickup"), ("encode", "complaint"),
    ]

    out = tmp_path / "reduced"
    applied = apply_plan(table, plan, out)
    assert applied.rows_written == 120
    assert applied.bytes_before == src.stat().st_size
    assert applied.bytes_after_main == applied.main_path.stat().st_size
    assert applied.measured_saved == applied.bytes_before - applied.bytes_after_main
    assert applied.measured_saved > 0

    with open(applied.main_path, encoding="utf-8") as fh:
        head = fh.readline().rstrip("\n")
        first = fh.readline().rstrip("\n").split(",")
    assert head == "unique_key,borough,complaint,latitude,longitude"
    assert first[2] == "0"                      # first complaint took code 0

    side = applied.sidecar_paths["taxi_pickup"].read_text(encoding="utf-8")
    assert side == "row,taxi_pickup\n8,YELLOW\n"          # K0007 is data row 8
    vd = ValueDictionary.read_csv("complaint", applied.dictionary_paths["complaint"])
    assert set(vd.entries) == set(COMPLAINTS)

    # drop/segregate measured savings follow the footprint arithmetic
    for action in plan.actions:
        assert action.measured_bytes_saved is not None
        if action.field == "park_borough":
            prof = next(p for p in profiles if p.field == "park_borough")
            assert action.measured_bytes_saved == prof.raw_chars + 120 + len("park_borough") + 1

    rebuilt = tmp_path / "rebuilt.csv"
    reconstruct_table(
        plan, applied.main_path, rebuilt,
        sidecar_paths=applied.sidecar_paths,
        dictionary_paths=applied.dictionary_paths,
    )
    assert filecmp.cmp(src, rebuilt, shallow=False)


def test_keyless_plan_segregates_and_round_trips(tmp_path):
    # sidecars are keyed by row ordinal, so segregation needs no key field
    src = write_source(tmp_path / "source.csv")
    table, profiles, pair_stats, concat_stats, stream = analyzed(src)
    plan = build_plan(
        profiles, pair_stats, baseline_bytes=table.byte_size, row_count=stream.delivered,
        concat_stats=concat_stats, raw_headers=table.raw_headers,
    )
    assert [a.field for a in plan.actions_of("segregate")] == ["taxi_pickup"]
    applied = apply_plan(table, plan, tmp_path / "out")
    rebuilt = tmp_path / "rebuilt.csv"
    reconstruct_table(
        plan, applied.main_path, rebuilt,
        sidecar_paths=applied.sidecar_paths, dictionary_paths=applied.dictionary_paths,
    )
    assert filecmp.cmp(src, rebuilt, shallow=False)


def test_apply_rejects_header_mismatch(tmp_path):
    src = write_source(tmp_path / "source.csv")
    table, profiles, pair_stats, concat_stats, stream = analyzed(src)
    plan = build_plan(
        profiles, pair_stats,
        baseline_bytes=table.byte_size, row_count=stream.delivered,
        key_field="unique_key",
    )
    plan.headers = plan.headers[::-1]
    with pytest.raises(PlanError, match="header order"):
        apply_plan(table, plan, tmp_path / "out")


def test_apply_width_drift_aborts(tmp_path):
    src = tmp_path / "s.csv"
    with open(src, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["k", "v"])
        for i in range(30):
            w.writerow([f"K{i}", f"value nr {i % 12}"])
    table = open_table(src)
    pc = ProfileCollector()
    stream = stream_rows(table, [pc])
    plan = build_plan(
        pc.finish(), [], PlanPolicy(encode_fields=["v"]),
        baseline_bytes=table.byte_size, row_count=stream.delivered, key_field="k",
    )
    assert plan.actions_of("encode")[0].details["code_width"] == 2
    # the file shrinks to 9 distinct values after planning
    with open(src, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["k", "v"])
        for i in range(30):
            w.writerow([f"K{i}", f"value nr {i % 9}"])
    out = tmp_path / "out"
    with pytest.raises(PlanError, match="rebuild the plan"):
        apply_plan(open_table(src), plan, out)
    assert list(out.iterdir()) == []


def test_apply_code_space_overflow_aborts(tmp_path):
    src = tmp_path / "s.csv"
    with open(src, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["k", "v"])
        for i in range(20):
            w.writerow([f"K{i}", f"value nr {i % 8}"])
    table = open_table(src)
    pc = ProfileCollector()
    stream = stream_rows(table, [pc])
    plan = build_plan(
        pc.finish(), [], PlanPolicy(encode_fields=["v"]),
        baseline_bytes=table.byte_size, row_count=stream.delivered, key_field="k",
    )
    # the file gains distinct values past the planned one-digit space
    with open(src, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["k", "v"])
        for i in range(20):
            w.writerow([f"K{i}", f"value nr {i}"])
    with pytest.raises(EncodeCapExceeded):
        apply_plan(open_table(src), plan, tmp_path / "out")


def test_reconstruct_refuses_lossy(tmp_path):
    src = write_source(tmp_path / "source.csv")
    table, profiles, _, _, stream = analyzed(src)
    plan = build_plan(
        profiles, [], PlanPolicy(
            auto_drop_duplicates=False, drop_fields=["borough"], allow_lossy=["borough"],
            segregate_fields=[],
        ),
        baseline_bytes=table.byte_size, row_count=stream.delivered, key_field="unique_key",
    )
    applied = apply_plan(table, plan, tmp_path / "out")
    with pytest.raises(PlanError, match="not reconstructible"):
        reconstruct_table(
            plan, applied.main_path, tmp_path / "rebuilt.csv",
            sidecar_paths={}, dictionary_paths={},
        )


def test_reconstruct_uses_normalized_headers_without_raw(tmp_path):
    src = tmp_path / "s.csv"
    with open(src, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["k", "a", "b"])
        for i in range(5):
            w.writerow([f"K{i}", f"x{i}", f"x{i}"])
    table = open_table(src)
    pc = ProfileCollector()
    pairs = PairCollector([("a", "b", None)])
    stream = stream_rows(table, [pc, pairs])
    plan = build_plan(
        pc.finish(), pairs.finish(),
        baseline_bytes=table.byte_size, row_count=stream.delivered, key_field="k",
    )
    assert plan.raw_headers is None
    applied = apply_plan(table, plan, tmp_path / "out")
    rebuilt = tmp_path / "rebuilt.csv"
    reconstruct_table(
        plan, applied.main_path, rebuilt,
        sidecar_paths=applied.sidecar_paths,
        dictionary_paths=applied.dictionary_paths,
    )
    assert filecmp.cmp(src, rebuilt, shallow=False)
