"""Batch boundaries and finding order across batches.

Every consumer reads delivered rows in Batches of BATCH_ROWS (B). Each
test here runs one consumer over 0, 1, B-1, B, B+1 and 2B+1 rows and
checks what must not depend on where a batch ends: state carried from an
earlier batch, and samples or findings kept in row order. Expected values
are written out from the construction of the input, not read back from
the implementation.
"""

import csv

import pytest

from odqa.config import load_config
from odqa.dictionary import DataDictionary, FieldDescriptor, TypeChecker
from odqa.domain_rules import UniqueChecker
from odqa.ingest import BATCH_ROWS as B
from odqa.pipeline import run_audit
from odqa.profiling import ProfileCollector
from odqa.redundancy import FDChecker, FDResult
from odqa.temporal import DurationAuditor

from conftest import feed, write_config

ROW_COUNTS = [0, 1, B - 1, B, B + 1, 2 * B + 1]


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_unique_duplicates_across_batches(n):
    # "key": all distinct, except that the last row repeats row 1's key, so a
    # full first batch takes the all-new path and the repeat lands in a later one.
    # "dup": one value on every row, so its locator list passes the cap.
    key = [f"k{i}" for i in range(n)]
    if n >= 2:
        key[-1] = "k0"
    findings = []
    checker = UniqueChecker([("key", True), ("dup", False)], emit=findings.append)
    by_key, by_dup = feed(checker, {"key": key, "dup": ["D"] * n})

    assert by_key.total_present == n and by_key.missing == 0
    assert by_key.duplicate_values == (1 if n >= 2 else 0)
    assert by_key.duplicate_rows == (2 if n >= 2 else 0)
    assert by_dup.duplicate_values == (1 if n >= 2 else 0)
    messages = [f.message for f in findings if f.rule_id == "duplicate_key"]
    want = []
    if n >= 2:
        want.append(f"'key' value 'k0' appears 2 times (rows 1, {n})")
        shown = ", ".join(str(o) for o in range(1, min(n, UniqueChecker.LOCATOR_CAP) + 1))
        more = f", and {n - UniqueChecker.LOCATOR_CAP} more" if n > UniqueChecker.LOCATOR_CAP else ""
        want.append(f"'dup' value 'D' appears {n} times (rows {shown}{more})")
    assert messages == want


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_fd_mapping_set_in_one_batch_and_violated_in_the_next(n):
    # the first batch maps A -> x (odd rows) and C -> z (even rows); every later row maps A -> y
    det = ["A" if o % 2 or o > B else "C" for o in range(1, n + 1)]
    dep = ["y" if o > B else "x" if d == "A" else "z" for o, d in enumerate(det, start=1)]
    res = feed(FDChecker("det", "dep"), {"det": det, "dep": dep})
    late = max(0, n - B)
    assert res.rows_checked == n
    assert res.violations == late
    assert res.holds == (late == 0)
    assert res.examples == [("A", "x", "y")] * min(late, FDResult.EXAMPLE_CAP)
    assert res.mapping_size == min(n, 2)


# ordinals whose cells are bad, two of them on each side of both batch ends
BAD_ROWS = (2, B - 1, B, B + 1, B + 2, 2 * B, 2 * B + 1)


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_type_samples_in_row_order_across_batches(n):
    ints = [f"bad{o}" if o in BAD_ROWS else ("" if o % 7 == 0 else str(o)) for o in range(1, n + 1)]
    stamps = [f"x{o}" if o in BAD_ROWS else "01/02/2023 03:04:05 PM" for o in range(1, n + 1)]
    d = DataDictionary([FieldDescriptor("n", "integer"), FieldDescriptor("t", "timestamp")])
    report = feed(TypeChecker(d), {"n": ints, "t": stamps})
    bad = [o for o in BAD_ROWS if o <= n]
    blanks = sum(1 for o in range(1, n + 1) if o % 7 == 0 and o not in BAD_ROWS)
    assert report.checked == {"n": n - blanks, "t": n}
    assert report.violations == {"n": len(bad), "t": len(bad)}
    assert report.samples["n"] == [(o, f"bad{o}") for o in bad][:TypeChecker.SAMPLE_CAP]
    assert report.samples["t"] == [(o, f"x{o}") for o in bad][:TypeChecker.SAMPLE_CAP]


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_unparseable_cells_of_one_row_in_field_order(n):
    def column(prefix, good):
        return [f"{prefix}{o}" if o in BAD_ROWS else good for o in range(1, n + 1)]

    findings = []
    auditor = DurationAuditor(
        created_field="created", closed_field="closed", updated_field="updated", emit=findings.append,
    )
    summary = feed(auditor, {
        "created": column("c", "01/02/2023 03:04:05 PM"),
        "closed": column("z", "01/03/2023 03:04:05 PM"),
        "updated": column("u", "01/03/2023 03:04:05 PM"),
    })
    bad = [o for o in BAD_ROWS if o <= n]
    got = [(f.row_locator, f.fields[0]) for f in findings if f.rule_id == "unparseable_timestamp"]
    assert got == [(o, field) for o in bad for field in ("created", "closed", "updated")]
    assert summary.parse_failures == {"created": len(bad), "closed": len(bad), "updated": len(bad)}
    assert summary.duration_count == n - len(bad)


# ordinal -> (cell, missing kind); the kinds first appear in the order
# NA, empty, N/A, null_literal, angle_NA, some of them mid-batch, and
# later batches repeat earlier kinds first
MISSING = {
    100: ("NA", "NA"),
    200: ("", "empty"),
    B - 1: ("N/A", "N/A"),
    B + 1: ("", "empty"),
    B + 2: ("NA", "NA"),
    B + 50: ("null", "null_literal"),
    2 * B: ("N/A", "N/A"),
    2 * B + 1: ("<NA>", "angle_NA"),
}


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_profile_missing_kinds_keep_first_appearance_order(n):
    values = [MISSING[o][0] if o in MISSING else "v" for o in range(1, n + 1)]
    [prof] = feed(ProfileCollector(), {"c": values})
    want: dict[str, int] = {}
    for o in sorted(MISSING):
        if o <= n:
            kind = MISSING[o][1]
            want[kind] = want.get(kind, 0) + 1
    assert list(prof.missing.items()) == list(want.items())
    assert prof.present == n - sum(want.values())
    assert prof.total == n


# -------------------------------------------- rules emitted for several fields

SAMPLE_CAP = 7


def test_multi_field_rules_keep_the_first_findings_in_row_order(tmp_path):
    """invalid_value (two reference fields) and missing_key (two required
    unique specs) keep, per rule, the first sample_cap findings in row-major
    order, fields in config order within a row, over several batches."""
    n = 3 * B + 40
    ref = tmp_path / "ref.txt"
    ref.write_text("ok\n", encoding="utf-8")
    data = tmp_path / "in.csv"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["zip_a", "zip_b", "key_a", "key_b"])
        for o in range(1, n + 1):
            w.writerow([
                f"a{o}" if o % 50 == 3 else "ok",
                f"b{o}" if o % 50 == 7 else "ok",
                "" if o % 40 == 5 else f"ka{o}",
                "" if o % 40 == 9 else f"kb{o}",
            ])
    cfg = load_config(write_config(tmp_path / "c.yaml", f"""\
        input: {data}
        out_dir: {tmp_path / "out"}
        sample_cap: {SAMPLE_CAP}
        references:
          zip_a: {ref}
          zip_b: {ref}
        unique:
          - {{field: key_a, required: true}}
          - {{field: key_b, required: true}}
        """))
    sink = run_audit(cfg, write=False).sink

    invalid, missing = [], []
    with open(data, newline="", encoding="utf-8") as fh:
        for o, row in enumerate(csv.DictReader(fh), start=1):
            for field in ("zip_a", "zip_b"):
                if row[field] != "ok":
                    invalid.append((o, field))
            for field in ("key_a", "key_b"):
                if row[field] == "":
                    missing.append((o, field))
    for rule, want in (("invalid_value", invalid), ("missing_key", missing)):
        assert len(want) > SAMPLE_CAP
        assert len({(o - 1) // B for o, _ in want}) >= 3     # spread over at least three batches
        assert sink.counts[rule] == len(want)
        got = [(f.row_locator, f.fields[0]) for f in sink.samples[rule]]
        assert got == want[:SAMPLE_CAP], rule
