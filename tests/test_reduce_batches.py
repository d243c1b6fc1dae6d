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

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
        apply_plan(open_table(write_rows(tmp_path / "s.csv", header, rows)), plan, out, key_field="k")
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


def test_apply_skips_blank_lines_when_counting_rows(tmp_path):
    src = tmp_path / "s.csv"
    body = "".join(f"K{o},v\n" + ("\n" * (B + 3) if o == 2 else "") for o in range(1, B + 2))
    src.write_text("k,v\n" + body + "K,v,extra\n", encoding="utf-8")
    with pytest.raises(PlanError, match=f"^row {B + 2}: 3 cells"):
        apply_plan(open_table(src), plan_for(["k", "v"]), tmp_path / "out")


@pytest.mark.parametrize("bad", EDGE_ROWS)
def test_apply_refuses_a_blank_key_under_segregation(tmp_path, bad):
    rows = [["" if o == bad else f"K{o}", "x" if o in (bad, 3) else ""] for o in range(1, TOTAL + 1)]
    err = refused(tmp_path, ["k", "s"], rows, plan_for(["k", "s"], segregate("s")))
    assert type(err) is PlanError
    assert str(err) == f"row {bad}: blank 'k' under segregation"


@pytest.mark.parametrize("bad", [11, B, B + 1, 2 * B + 1])     # ten codes fit before row 11
def test_apply_refuses_an_encode_overflow(tmp_path, bad):
    rows = [[f"K{o}", v] for o, v in enumerate(encoded_values(bad), start=1)]
    err = refused(tmp_path, ["k", "v"], rows, plan_for(["k", "v"], encode("v")))
    assert type(err) is EncodeCapExceeded
    assert str(err) == (
        "'v': value 'value 10' does not fit the planned 1-digit code space; "
        "the file changed since planning"
    )


@pytest.mark.parametrize("first,second", [(3, 7), (7, 3), (B + 9, B + 2)])
def test_apply_names_the_first_blank_key_in_row_major_order(tmp_path, first, second):
    # s1 is blank-keyed at row `first`, s2 at row `second`, both in one batch
    rows = [
        ["" if o in (first, second) else f"K{o}", "x" if o == first else "", "y" if o == second else ""]
        for o in range(1, TOTAL + 1)
    ]
    plan = plan_for(["k", "s1", "s2"], segregate("s1"), segregate("s2"))
    err = refused(tmp_path, ["k", "s1", "s2"], rows, plan)
    assert str(err) == f"row {min(first, second)}: blank 'k' under segregation"


@pytest.mark.parametrize("kind,row", [("ragged", 20), ("blank", 30), ("overflow", 40)])
def test_apply_refusals_of_different_kinds_keep_row_order(tmp_path, kind, row):
    # one refusal of each kind in the same batch; only `kind` is at `row`,
    # the others come later, so `kind` must be the one raised
    at = {"ragged": 50, "blank": 55, "overflow": 60, kind: row}
    values = encoded_values(at["overflow"])
    rows = [
        ["" if o == at["blank"] else f"K{o}", "x" if o == at["blank"] else "", v]
        + (["extra"] if o == at["ragged"] else [])
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
    # the csv reader rejects record `malformed` after handing over the rows before it
    src = tmp_path / "s.csv"
    lines = [
        'K,"x"y' if o == malformed else ",x" if o == blank else f"K{o},"
        for o in range(1, TOTAL + 1)
    ]
    src.write_text("k,s\n" + "\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    if blank < malformed:
        message = f"row {blank}: blank 'k' under segregation"
    else:
        message = f"row {malformed}: ',' expected after '\"'; audit and repair before reducing"
    with pytest.raises(PlanError) as info:
        apply_plan(open_table(src), plan_for(["k", "s"], segregate("s")), out, key_field="k")
    assert type(info.value) is PlanError
    assert str(info.value) == message
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
        sidecar_paths={}, dictionary_paths={"v": tmp_path / "v.dict.csv"}, key_field="k",
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
    "s.sidecar.csv": b"unique_key,s\nK1,x\n",
    "v.dict.csv": b"code,value\n0,alpha\n1,beta\n",
}


@pytest.mark.parametrize("name,data,message", [
    pytest.param("s.sidecar.csv", b"unique_key,s\nK1\n", "row 1: 1 cells, expected 2 in {path}",
                 id="sidecar-1-cell"),
    pytest.param("s.sidecar.csv", b"unique_key,s\nK1,x,y\n", "row 1: 3 cells, expected 2 in {path}",
                 id="sidecar-3-cells"),
    pytest.param("v.dict.csv", b"code,value\n0,alpha\nx,beta\n", "{path}: row 2: malformed entry at position 1",
                 id="dictionary-code-x"),
    pytest.param("reduced.csv", b'k,v\nK1,0\n"K"2,1\n', "row 2: ',' expected after '\"' in {path}",
                 id="reduced-quoting"),
    pytest.param("s.sidecar.csv", b'unique_key,s\nK1,"x"y\n', "row 1: ',' expected after '\"' in {path}",
                 id="sidecar-quoting"),
    pytest.param("v.dict.csv", b'code,value\n0,"a"z\n1,beta\n', "row 1: ',' expected after '\"' in {path}",
                 id="dictionary-quoting"),
    pytest.param("reduced.csv", b"k,v\nK1,0\nK2,\xff\n",
                 "row 2: invalid UTF-8 at byte 12 (invalid start byte) in {path}", id="reduced-utf8"),
])
def test_reconstruct_refuses_a_bad_record_in_any_file_it_reads(tmp_path, name, data, message):
    for own, own_data in OWN.items():
        (tmp_path / own).write_bytes(data if own == name else own_data)
    plan = plan_for(["k", "s", "v"], segregate("s"), encode("v"))
    with pytest.raises(PlanError) as info:
        reconstruct_table(
            plan, tmp_path / "reduced.csv", tmp_path / "rebuilt.csv",
            sidecar_paths={"s": tmp_path / "s.sidecar.csv"},
            dictionary_paths={"v": tmp_path / "v.dict.csv"}, key_field="k",
        )
    assert str(info.value) == message.format(path=tmp_path / name)
