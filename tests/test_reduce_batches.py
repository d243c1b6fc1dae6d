"""Apply and reconstruct across batch ends, and the CSV writer they share.

apply_plan and reconstruct_table read REDUCE_BATCH_ROWS (B) rows at a time
and write every row through _write_columns. The writer must give exactly the
bytes of csv.writer(lineterminator="\\n"). A refusal must name the same
row, with the same exception and message, wherever the row falls in a
batch, and the first refusal in row-major order wins, as it did when
apply walked one row at a time. Expected messages are written out here,
not read back from the implementation.
"""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import odqa
from odqa.errors import PlanError
from odqa.ingest import open_table
from odqa.reduce import REDUCE_BATCH_ROWS as B
from odqa.reduce import (
    EncodeCapExceeded,
    PlanAction,
    ReductionPlan,
    ValueDictionary,
    _write_columns,
    apply_plan,
    reconstruct_table,
)

EDGE_ROWS = [1, B, B + 1, 2 * B + 1]
TOTAL = 2 * B + 5      # rows in each source: two full batches and a partial one


# ------------------------------------------------------------------ writer

FIELD = st.text(
    alphabet=st.sampled_from([",", '"', "\n", "\r", "\x00", " ", "a", "Z", "é", "中", " "])
    | st.characters(),
    max_size=6,
)
BATCHES = st.integers(min_value=1, max_value=6).flatmap(
    lambda width: st.lists(st.lists(FIELD, min_size=width, max_size=width), max_size=3)
)


@given(BATCHES)
@example([[""]])
@example([["a"], [""], ['"']])
@example([["", ""], ["\r", "x\ny"]])
def test_write_columns_matches_csv_writer(rows):
    expect = io.StringIO()
    csv.writer(expect, lineterminator="\n").writerows(rows)
    got = io.StringIO()
    _write_columns(got, list(zip(*rows)), len(rows))
    assert got.getvalue() == expect.getvalue()


# ------------------------------------------------------------------ apply refusals

def write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    return path


def plan_for(headers, *actions):
    return ReductionPlan(baseline_bytes=0, row_count=TOTAL, headers=list(headers), actions=list(actions))


def segregate(name):
    return PlanAction("segregate", name, "test", True, 0)


def encode(name, width=1):
    return PlanAction("encode", name, "test", True, 0, {"code_width": width})


def refused(tmp_path, header, rows, plan):
    """apply_plan's refusal of the source; asserts it left no output behind."""
    out = tmp_path / "out"
    with pytest.raises(PlanError) as info:
        apply_plan(open_table(write_rows(tmp_path / "s.csv", header, rows)), plan, out)
    assert list(out.iterdir()) == []
    return info.value


def encoded_values(bad_row):
    # ten distinct values fill the one-digit code space by row 10; the
    # eleventh distinct value comes at bad_row
    return [f"value {i % 10}" if o != bad_row else "value 10" for i, o in enumerate(range(1, TOTAL + 1))]


@pytest.mark.parametrize("bad", EDGE_ROWS)
def test_apply_refuses_a_ragged_row(tmp_path, bad):
    rows = [[f"K{o}", "v"] + (["extra"] if o == bad else []) for o in range(1, TOTAL + 1)]
    err = refused(tmp_path, ["k", "v"], rows, plan_for(["k", "v"], encode("v")))
    assert type(err) is PlanError
    assert str(err) == f"row {bad}: 3 cells, expected 2; audit and repair before reducing"


def test_apply_refuses_a_blank_line(tmp_path):
    # no rebuild can restore a blank line, so apply refuses it as a row of 0
    # cells; the audit skips it (test_ingest::test_blank_lines_are_skipped_silently)
    rows = [[] if o == B + 1 else [f"K{o}", "v"] for o in range(1, TOTAL + 1)]
    err = refused(tmp_path, ["k", "v"], rows, plan_for(["k", "v"]))
    assert str(err) == f"row {B + 1}: 0 cells, expected 2; audit and repair before reducing"


@pytest.mark.parametrize("bad", [11, B, B + 1, 2 * B + 1])     # ten codes fit before row 11
def test_apply_refuses_an_encode_overflow(tmp_path, bad):
    rows = [[f"K{o}", v] for o, v in enumerate(encoded_values(bad), start=1)]
    err = refused(tmp_path, ["k", "v"], rows, plan_for(["k", "v"], encode("v")))
    assert type(err) is EncodeCapExceeded
    assert str(err) == (
        "'v': value 'value 10' does not fit the planned 1-digit code space; "
        "the file changed since planning"
    )


@pytest.mark.parametrize("kind,row", [("ragged", 20), ("blank", 30), ("overflow", 40)])
def test_apply_refusals_of_different_kinds_keep_row_order(tmp_path, kind, row):
    # one refusal of each kind in the same batch; only `kind` is at `row`,
    # the others come later, so `kind` must be the one raised. A blank
    # line is a row of 0 cells.
    at = {"ragged": 50, "blank": 55, "overflow": 60, kind: row}
    values = encoded_values(at["overflow"])
    rows = [
        [] if o == at["blank"] else [f"K{o}", "x", v] + (["extra"] if o == at["ragged"] else [])
        for o, v in enumerate(values, start=1)
    ]
    plan = plan_for(["k", "s", "v"], segregate("s"), encode("v"))
    err = refused(tmp_path, ["k", "s", "v"], rows, plan)
    if kind == "overflow":
        assert type(err) is EncodeCapExceeded
    else:
        assert str(err).startswith(f"row {row}: ")


@pytest.mark.parametrize("blank,malformed", [(5, 10), (10, 5), (B + 3, 2 * B + 2)])
def test_apply_blank_key_and_malformed_record_in_row_order(tmp_path, blank, malformed):
    # the csv reader rejects record `malformed` after handing over the rows
    # before it; a blank-keyed row with a segregated value is no refusal
    src = tmp_path / "s.csv"
    lines = [
        'K,"x"y' if o == malformed else ",x" if o == blank else f"K{o},"
        for o in range(1, TOTAL + 1)
    ]
    src.write_text("k,s\n" + "\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    with pytest.raises(PlanError) as info:
        apply_plan(open_table(src), plan_for(["k", "s"], segregate("s")), out)
    assert type(info.value) is PlanError
    assert str(info.value) == f"row {malformed}: ',' expected after '\"'; audit and repair before reducing"
    assert list(out.iterdir()) == []


# ------------------------------------------------------------------ reconstruct refusals

REBUILD_ROWS = [1, B + 1, 2 * B + 3]      # first batch, first row of the second, last partial batch


def reduced_files(tmp_path, cells):
    """A reduced file with columns k and encoded v, and the dictionary of v."""
    main = write_rows(tmp_path / "reduced.csv", ["k", "v"], cells)
    ValueDictionary("v", ("alpha", "beta", "gamma")).write_csv(tmp_path / "v.dict.csv")
    return main


def rebuild(tmp_path, main):
    reconstruct_table(
        plan_for(["k", "v"], encode("v")), main, tmp_path / "rebuilt.csv",
        sidecar_paths={}, dictionary_paths={"v": tmp_path / "v.dict.csv"},
    )


def test_reconstruct_decodes_every_batch(tmp_path):
    cells = [[f"K{o}", ["0", "1", "2", ""][o % 4]] for o in range(1, TOTAL + 1)]
    rebuild(tmp_path, reduced_files(tmp_path, cells))
    want = "k,v\n" + "".join(f"K{o},{['alpha', 'beta', 'gamma', ''][o % 4]}\n" for o in range(1, TOTAL + 1))
    assert (tmp_path / "rebuilt.csv").read_text(encoding="utf-8") == want


@pytest.mark.parametrize("bad", REBUILD_ROWS)
@pytest.mark.parametrize("cells", [["K", "0", "extra"], ["K"], []])
def test_reconstruct_refuses_a_row_of_another_width(tmp_path, bad, cells):
    rows = [cells if o == bad else [f"K{o}", "1"] for o in range(1, TOTAL + 1)]
    main = reduced_files(tmp_path, rows)
    with pytest.raises(PlanError, match=f"row {bad}: {len(cells)} cells, expected 2 in "):
        rebuild(tmp_path, main)


@pytest.mark.parametrize("bad", REBUILD_ROWS)
def test_reconstruct_refuses_a_record_the_csv_reader_rejects(tmp_path, bad):
    limit = csv.field_size_limit()
    rows = [[f"K{o}", "1" * (limit + 1) if o == bad else "1"] for o in range(1, TOTAL + 1)]
    main = reduced_files(tmp_path, rows)
    with pytest.raises(PlanError) as info:
        rebuild(tmp_path, main)
    assert str(info.value) == f"row {bad}: field larger than field limit ({limit}) in {main}"


@pytest.mark.parametrize("bad", REBUILD_ROWS)
@pytest.mark.parametrize("code", ["3", "-1", "x", "01", " 1"])
def test_reconstruct_refuses_a_cell_that_is_not_a_code(tmp_path, bad, code):
    rows = [[f"K{o}", code if o == bad else "1"] for o in range(1, TOTAL + 1)]
    main = reduced_files(tmp_path, rows)
    with pytest.raises(PlanError, match=f"row {bad}: 'v' cell '{code}' is not a code in its dictionary"):
        rebuild(tmp_path, main)


@pytest.mark.parametrize("bad", [0, 1, B + 1, 2 * B + 3])     # 0 is the header
def test_apply_refuses_invalid_utf8(tmp_path, bad):
    src = tmp_path / "s.csv"
    lines = [b"k,v"] + [b"K%d,v\xff" % o if o == bad else b"K%d,v" % o for o in range(1, TOTAL + 1)]
    if bad == 0:
        lines[0] = b"k,\xff"
    src.write_bytes(b"\n".join(lines) + b"\n")
    out = tmp_path / "out"
    where = "header" if bad == 0 else f"row {bad}"
    at = src.read_bytes().index(b"\xff")
    table = open_table(src)
    with pytest.raises(PlanError) as info:
        apply_plan(table, plan_for(table.headers), out)
    assert str(info.value) == (
        f"{where}: invalid UTF-8 at byte {at} (invalid start byte); audit and repair before reducing"
    )
    assert list(out.iterdir()) == []


# ------------------------------------------------------------------ own outputs read strictly

OWN = {
    "reduced.csv": b"k,v\nK1,0\nK2,1\n",
    "s.sidecar.csv": b"row,s\n1,x\n",
    "v.dict.csv": b"code,value\n0,alpha\n1,beta\n",
}


def sidecar_case(data, message, id):
    return pytest.param("s.sidecar.csv", b"row,s\n" + data, message, id=id)


@pytest.mark.parametrize("name,data,message", [
    sidecar_case(b"1\n", "row 1: 1 cells, expected 2 in {path}", "sidecar-1-cell"),
    sidecar_case(b"1,x,y\n", "row 1: 3 cells, expected 2 in {path}", "sidecar-3-cells"),
    pytest.param("v.dict.csv", b"code,value\n0,alpha\nx,beta\n", "{path}: row 2: malformed entry at position 1",
                 id="dictionary-code-x"),
    pytest.param("reduced.csv", b'k,v\nK1,0\n"K"2,1\n', "row 2: ',' expected after '\"' in {path}",
                 id="reduced-quoting"),
    sidecar_case(b'1,"x"y\n', "row 1: ',' expected after '\"' in {path}", "sidecar-quoting"),
    pytest.param("v.dict.csv", b'code,value\n0,"a"z\n1,beta\n', "row 1: ',' expected after '\"' in {path}",
                 id="dictionary-quoting"),
    pytest.param("reduced.csv", b"k,v\nK1,0\nK2,\xff\n",
                 "row 2: invalid UTF-8 at byte 12 (invalid start byte) in {path}", id="reduced-utf8"),
    pytest.param("s.sidecar.csv", b"unique_key,s\nK1,x\n", "{path}: header 'unique_key,s', expected 'row,s'",
                 id="sidecar-keyed-by-unique-key"),
    sidecar_case(b"1,x\n\n2,y\n", "row 2: 0 cells, expected 2 in {path}", "sidecar-blank-line"),
    sidecar_case(b"x,a\n", "{path}: row 1: 'x' is not a row ordinal above 0", "sidecar-ordinal-x"),
    sidecar_case(b" 1,a\n", "{path}: row 1: ' 1' is not a row ordinal above 0", "sidecar-ordinal-space"),
    sidecar_case(b"0,a\n", "{path}: row 1: '0' is not a row ordinal above 0", "sidecar-ordinal-0"),
    sidecar_case(b"1,a\n1,b\n", "{path}: row 2: '1' is not a row ordinal above 1", "sidecar-ordinal-repeats"),
    sidecar_case(b"2,a\n1,b\n", "{path}: row 2: '1' is not a row ordinal above 2", "sidecar-ordinal-goes-down"),
    sidecar_case(b"1,a\n3,b\n", "{path}: row 2: ordinal 3 is past the reduced file's last row 2",
                 "sidecar-ordinal-past-end"),
])
def test_reconstruct_refuses_a_bad_record_in_any_file_it_reads(tmp_path, name, data, message):
    for own, own_data in OWN.items():
        (tmp_path / own).write_bytes(data if own == name else own_data)
    plan = plan_for(["k", "s", "v"], segregate("s"), encode("v"))
    with pytest.raises(PlanError) as info:
        reconstruct_table(
            plan, tmp_path / "reduced.csv", tmp_path / "rebuilt.csv",
            sidecar_paths={"s": tmp_path / "s.sidecar.csv"},
            dictionary_paths={"v": tmp_path / "v.dict.csv"},
        )
    assert str(info.value) == message.format(path=tmp_path / name)


def test_reconstruct_reads_its_own_files(tmp_path):
    # the OWN files are well formed: each refusal above comes from its one edit
    for own, own_data in OWN.items():
        (tmp_path / own).write_bytes(own_data)
    reconstruct_table(
        plan_for(["k", "s", "v"], segregate("s"), encode("v")), tmp_path / "reduced.csv", tmp_path / "rebuilt.csv",
        sidecar_paths={"s": tmp_path / "s.sidecar.csv"}, dictionary_paths={"v": tmp_path / "v.dict.csv"},
    )
    assert (tmp_path / "rebuilt.csv").read_bytes() == b"k,s,v\nK1,x,alpha\nK2,,beta\n"


# ------------------------------------------------------------------ sidecars keyed by row ordinal

def round_trip(tmp_path, header, rows, plan):
    """Apply plan to the rows and rebuild them; returns (source, rebuilt) bytes."""
    src = write_rows(tmp_path / "s.csv", header, rows)
    applied = apply_plan(open_table(src), plan, tmp_path / "out")
    reconstruct_table(
        plan, applied.main_path, tmp_path / "rebuilt.csv",
        sidecar_paths=applied.sidecar_paths, dictionary_paths=applied.dictionary_paths,
    )
    return src.read_bytes(), (tmp_path / "rebuilt.csv").read_bytes()


def test_segregated_value_on_a_duplicated_key_round_trips(tmp_path):
    # K7 appears twice, with a different segregated value each time
    rows = [[f"K{o}", "X" if o == 7 else "", "a"] for o in range(1, 200)] + [["K7", "Y", "b"]]
    src, rebuilt = round_trip(tmp_path, ["k", "s", "v"], rows, plan_for(["k", "s", "v"], segregate("s")))
    assert rebuilt == src


def test_blank_keyed_rows_round_trip(tmp_path):
    rows = [["" if o in EDGE_ROWS else f"K{o}", "x" if o in EDGE_ROWS or o == 3 else ""] for o in range(1, TOTAL + 1)]
    src, rebuilt = round_trip(tmp_path, ["k", "s"], rows, plan_for(["k", "s"], segregate("s")))
    assert rebuilt == src


def test_missing_tokens_in_a_segregated_column_round_trip(tmp_path):
    # only empty cells stay out of a sidecar; what the classifier calls
    # missing is text to keep
    tokens = {1: "NA", B: " NA ", B + 1: "   ", B + 2: "\t", 2 * B + 1: "N/A", TOTAL: "null"}
    rows = [[f"K{o}", tokens.get(o, "")] for o in range(1, TOTAL + 1)]
    src, rebuilt = round_trip(tmp_path, ["k", "s"], rows, plan_for(["k", "s"], segregate("s")))
    assert rebuilt == src
    sidecar = (tmp_path / "out" / "s.sidecar.csv").read_text(encoding="utf-8")
    assert sidecar == "row,s\n" + "".join(f"{o},{v}\n" for o, v in sorted(tokens.items()))


# A fresh interpreter's ru_maxrss starts at the RSS of the process it was
# forked from, so the rebuild runs under a small launcher, not under pytest.
LAUNCH = (
    "import subprocess, sys; print(subprocess.run([sys.executable, '-c', *sys.argv[1:]],"
    " capture_output=True, text=True, check=True).stdout, end='')"
)
REBUILD_PEAK = """
import resource, sys
from pathlib import Path
from odqa.reduce import ReductionPlan, reconstruct_table
out = Path(sys.argv[1])
reconstruct_table(ReductionPlan.read_json(out / "plan.json"), out / "reduced.csv", out / "rebuilt.csv",
                  sidecar_paths={"s": out / "s.sidecar.csv"}, dictionary_paths={})
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def rebuild_peak_kb(tmp_path, rows):
    """Peak RSS in KiB of a fresh interpreter rebuilding `rows` rows whose
    segregated column is present on every row."""
    out = tmp_path / str(rows)
    out.mkdir()
    src = out / "source.csv"
    with open(src, "w", encoding="utf-8", newline="") as fh:
        fh.write("k,s\n")
        fh.writelines(f"K{o},value {o}\n" for o in range(1, rows + 1))
    plan = plan_for(["k", "s"], segregate("s"))
    apply_plan(open_table(src), plan, out)
    plan.write_json(out / "plan.json")
    env = {**os.environ, "PYTHONPATH": str(Path(odqa.__file__).resolve().parents[1])}
    child = subprocess.run([sys.executable, "-c", LAUNCH, REBUILD_PEAK, str(out)],
                           env=env, capture_output=True, text=True, check=True)
    assert (out / "rebuilt.csv").read_bytes() == src.read_bytes()
    return int(child.stdout)


def test_rebuild_memory_does_not_grow_with_sidecar_rows(tmp_path):
    small, large = rebuild_peak_kb(tmp_path, 100_000), rebuild_peak_kb(tmp_path, 400_000)
    assert large <= 1.1 * small, f"rebuild peak RSS {small} KiB at 100k rows, {large} KiB at 400k"
