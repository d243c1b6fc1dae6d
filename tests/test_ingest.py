"""Streaming CSV ingestion: framing, headers, missing-value vocabulary."""

import hashlib
import re
import string
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import odqa
from odqa.config import AuditConfig
from odqa.domain_rules import GeoBoundsChecker, PrecisionAuditor, ReferenceChecker, UniqueChecker
from odqa.errors import InputError
from odqa.findings import FindingSink
from odqa.ingest import (
    _CHUNK,
    BOM,
    DEFAULT_CLASSIFIER,
    MissingClassifier,
    RowConsumer,
    normalize_header,
    open_table,
    stream_rows,
)
from odqa.pipeline import run_profile
from odqa.redundancy import ConcatChecker, FDChecker, PairCollector
from odqa.temporal import DurationAuditor


class Collect(RowConsumer):
    def __init__(self):
        self.rows = []

    def consume_batch(self, batch):
        self.rows.extend(zip(batch.ordinals, map(list, zip(*batch.columns))))


def read_all(path, emit=None):
    table = open_table(path)
    sink = Collect()
    result = stream_rows(table, [sink], emit=emit)
    return table, sink.rows, result


# ---------------------------------------------------------------- framing

def test_quoted_commas_and_doubled_quotes(write_csv):
    p = write_csv("t.csv", '''\
        a,b
        "x,y",plain
        "he said ""hi""",2
        ''')
    _, rows, _ = read_all(p)
    assert rows == [(1, ["x,y", "plain"]), (2, ['he said "hi"', "2"])]


def test_embedded_newline_inside_quotes(write_csv):
    p = write_csv("t.csv", 'a,b\n"line1\nline2",3\n', dedent=False)
    _, rows, _ = read_all(p)
    assert rows == [(1, ["line1\nline2", "3"])]


def test_crlf_and_final_line_without_newline(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(b"a,b\r\n1,2\r\n3,4")
    _, rows, result = read_all(p)
    assert rows == [(1, ["1", "2"]), (2, ["3", "4"])]
    assert result.row_count == 2


def test_utf8_bom_is_stripped_from_first_header(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(b"\xef\xbb\xbfName,Other\n1,2\n")
    table, rows, _ = read_all(p)
    assert table.has_bom
    assert table.raw_headers == ["Name", "Other"]
    assert table.headers == ["name", "other"]
    assert rows == [(1, ["1", "2"])]


def test_blank_lines_are_skipped_silently(write_csv):
    p = write_csv("t.csv", "a,b\n1,2\n\n\n3,4\n", dedent=False)
    sink = FindingSink()
    _, rows, result = read_all(p, emit=sink.emit)
    assert [r for _, r in rows] == [["1", "2"], ["3", "4"]]
    assert result.row_count == 2
    assert sink.total() == 0


def test_ragged_rows_skipped_with_finding(write_csv):
    p = write_csv("t.csv", "a,b\n1,2\nonly_one\n1,2,3\n5,6\n", dedent=False)
    sink = FindingSink()
    _, rows, result = read_all(p, emit=sink.emit)
    assert [r for _, r in rows] == [["1", "2"], ["5", "6"]]
    assert result.skipped_ragged == 2
    assert sink.counts["ragged_row"] == 2
    assert result.delivered == 2
    assert result.row_count == 4


def test_malformed_quoting_reports_byte_offset(tmp_path):
    # quote opened mid-field and never closed before EOF
    p = tmp_path / "t.csv"
    p.write_bytes(b'a,b\ngood,row\nbad,"unterminated\n')
    sink = FindingSink()
    _, rows, result = read_all(p, emit=sink.emit)
    assert [r for _, r in rows] == [["good", "row"]]
    assert result.skipped_malformed >= 1
    assert sink.counts["malformed_quoting"] >= 1
    sample = sink.samples["malformed_quoting"][0]
    assert "byte" in sample.message


def test_stream_sets_table_row_count(write_csv):
    p = write_csv("t.csv", "a\n1\n2\n3\n", dedent=False)
    table, _, result = read_all(p)
    assert table.row_count == result.row_count == 3


class Locate(RowConsumer):
    def __init__(self):
        self.seen = []

    def consume_batch(self, batch):
        self.seen.extend(zip(batch.locators(), batch.agencies() or [None] * len(batch.ordinals)))


def test_absent_key_and_agency_columns_fall_back(write_csv):
    p = write_csv("t.csv", """\
        a,b
        x,1
        y,2
        """)
    got, locate = [], Locate()
    stream_rows(open_table(p), [locate], emit=got.append, key_field="key", agency_field="agency")
    assert [(f.rule_id, f.fields) for f in got] == [("agency_field_missing", ("agency",))]
    assert locate.seen == [(1, None), (2, None)]


# ---------------------------------------------------------------- headers

@pytest.mark.parametrize("raw,expect", [
    ("Created Date", "created_date"),
    ("Unique Key", "unique_key"),
    ("Incident Zip", "incident_zip"),
    ("Cross Street 1", "cross_street_1"),
    ("location  (lat, lon)", "location__lat__lon"),
    ("BOROUGH", "borough"),
    ("Zip+4", "zip_4"),
    ("  spaced  out  ", "spaced_out"),
    ("@Computed Region abc", "computed_region_abc"),
])
def test_normalize_header_examples(raw, expect):
    assert normalize_header(raw) == expect


def test_normalize_header_rejects_all_punctuation():
    with pytest.raises(ValueError):
        normalize_header("@#$%")


@given(st.text(min_size=1, max_size=40))
def test_normalize_header_charset_and_idempotence(raw):
    try:
        name = normalize_header(raw)
    except ValueError:
        return
    assert name
    assert set(name) <= set(string.ascii_lowercase + string.digits + "_")
    assert not name.startswith("_") and not name.endswith("_")
    assert normalize_header(name) == name


def test_header_collisions_get_suffixes(write_csv):
    p = write_csv("t.csv", "Status,status,STATUS \n1,2,3\n", dedent=False)
    table, rows, _ = read_all(p)
    assert table.headers == ["status", "status_2", "status_3"]
    assert any(f.rule_id == "header_collision" for f in table.header_findings)


def test_unnamed_columns_are_synthesized(write_csv):
    p = write_csv("t.csv", "a,,b\n1,2,3\n", dedent=False)
    table, _, _ = read_all(p)
    assert table.headers[1] == "column_2"
    assert any(f.rule_id == "unnamed_column" for f in table.header_findings)


# ------------------------------------------------------- missing classifier

@pytest.mark.parametrize("raw,kind", [
    ("", "empty"),
    ("   ", "whitespace"),
    ("\t", "whitespace"),
    ("NA", "NA"),
    ("N/A", "N/A"),
    ("<NA>", "angle_NA"),
    ("null", "null_literal"),
    ("NULL", "null_literal"),
    ("Null", "null_literal"),
    (" NA", "NA"),
    ("N/A ", "N/A"),
    ("\tnull ", "null_literal"),
])
def test_default_missing_kinds(raw, kind):
    # padding does not rescue a sentinel: classification is on the
    # trimmed token
    assert DEFAULT_CLASSIFIER.kind_of(raw) == kind


@pytest.mark.parametrize("raw", [
    "0", "value", "na ", "n/a", "None", "NaN", "<na>", "-", "nullify",
])
def test_values_not_treated_as_missing(raw):
    # trimmed tokens match exactly (null alone is case-insensitive);
    # cased variants are data, not sentinels
    assert DEFAULT_CLASSIFIER.kind_of(raw) is None


def test_extra_tokens_extend_the_vocabulary():
    clf = MissingClassifier({"-": "empty", "Unspecified": "NA"})
    assert clf.kind_of("-") == "empty"
    assert clf.kind_of("Unspecified") == "NA"
    assert clf.kind_of("unspecified") is None
    assert clf.kind_of("NA") == "NA"


def test_extra_tokens_reject_unknown_kind():
    with pytest.raises(ValueError):
        MissingClassifier({"-": "not_a_kind"})


@given(st.text(alphabet=string.ascii_letters + string.digits + " <>/", max_size=10))
def test_classifier_agrees_with_reference_table(raw):
    token = raw.strip()
    expected = None
    if raw == "":
        expected = "empty"
    elif token == "":
        expected = "whitespace"
    elif token == "NA":
        expected = "NA"
    elif token == "N/A":
        expected = "N/A"
    elif token == "<NA>":
        expected = "angle_NA"
    elif token.lower() == "null":
        expected = "null_literal"
    assert DEFAULT_CLASSIFIER.kind_of(raw) == expected


# ---------------------------------------------------------------- digest

@pytest.mark.parametrize("name,data", [
    ("bom", BOM + b"a,b\n1,2\n3,4\n"),
    ("crlf", b"a,b\r\n1,2\r\n3,4"),
    ("malformed", b'a,b\ngood,row\nbad,"x"y\n5,6\nlast,"open\n'),
    ("header_only", b"a,b\n"),
    ("bom_crlf_multi_chunk", BOM + b"a,b\r\n" + b"".join(b"%d,%s\r\n" % (i, b"v" * 50) for i in range(40_000))),
])
def test_stream_digest_is_the_file_sha256(tmp_path, name, data):
    p = tmp_path / f"{name}.csv"
    p.write_bytes(data)
    want = hashlib.sha256(p.read_bytes()).hexdigest()
    assert stream_rows(open_table(p), []).sha256 == want
    result = run_profile(AuditConfig(input_path=p, out_dir=tmp_path / "out"), write=False)
    assert result.report.dataset_sha256 == want


def test_quoted_newlines_straddling_a_read_chunk(tmp_path):
    # the quoted field starts 20 bytes before the first chunk ends and holds
    # a newline every other byte, so the chunk boundary falls between two of them
    head = b"a,b\n"
    filler = b"".join(b"%07d,f\n" % i for i in range((_CHUNK - 20 - len(head)) // 10 - 1))
    pad = b"p" * (_CHUNK - 20 - len(head) - len(filler) - 3) + b",f\n"
    quoted = "\n".join(["q"] * 30)
    data = head + filler + pad + b'"' + quoted.encode() + b'",2\n' + b"last,3\n"
    assert len(head + filler + pad) == _CHUNK - 20
    p = tmp_path / "straddle.csv"
    p.write_bytes(data)
    table, rows, result = read_all(p)
    body = rows[-3:]
    assert body[0][1] == [pad[:-3].decode(), "f"]
    assert body[1][1] == [quoted, "2"]
    assert body[2][1] == ["last", "3"]
    assert [o for o, _ in rows] == list(range(1, len(rows) + 1))
    assert result.sha256 == hashlib.sha256(p.read_bytes()).hexdigest()


def test_empty_file_is_an_input_error(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_bytes(b"")
    with pytest.raises(InputError, match="no header row"):
        open_table(p)


def test_a_header_the_csv_reader_rejects_is_an_input_error(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(b'a,"b"x\n1,2\n')
    with pytest.raises(InputError, match=f"^{re.escape(str(p))}: header: ',' expected after '\"'$"):
        open_table(p)


def test_one_csv_reader_in_the_package():
    # every pass reads records through ingest.read_records; a second reader
    # set-up would let one pass accept what another refuses
    readers = {}
    for path in sorted(Path(odqa.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        readers[path.name] = text.count("csv.reader(")
        assert "_column_batches" not in text and "_starts_with_bom" not in text, path.name
    assert {name: n for name, n in readers.items() if n} == {"ingest.py": 1}


def test_resolve_names_every_absent_column(write_csv):
    table = open_table(write_csv("t.csv", "a,b,c\n1,2,3\n"))
    assert table.resolve(["c", "a", "c"]) == [2, 0, 2]
    assert table.resolve([]) == []
    with pytest.raises(ValueError, match=r"^column\(s\) not in the header: 'x', 'y'$") as exc:
        table.resolve(["x", "a", "y", "x"])
    assert exc.value.names == ["x", "y"]


ABSENT_CONSUMERS = {
    "reference": lambda: ReferenceChecker({"x": frozenset("1"), "a": frozenset("1"), "y": frozenset("1")}),
    "geo": lambda: GeoBoundsChecker("x", "y"),
    "unique": lambda: UniqueChecker([("x", False), ("a", True), ("y", False)]),
    "precision": lambda: PrecisionAuditor(["x", "a", "y"]),
    "pairs": lambda: PairCollector([("a", "x", None), ("y", "b", None)]),
    "concat": lambda: ConcatChecker("x", "a", "y"),
    "fd": lambda: FDChecker("x", "y"),
    "temporal": lambda: DurationAuditor(created_field="x", closed_field="a", updated_field="y"),
}


@pytest.mark.parametrize("make", ABSENT_CONSUMERS.values(), ids=ABSENT_CONSUMERS.keys())
def test_every_consumer_names_all_its_absent_columns_before_the_first_row(write_csv, make):
    table = open_table(write_csv("t.csv", "a,b\n1,2\n"))
    with pytest.raises(ValueError, match=r"^column\(s\) not in the header: 'x', 'y'$"):
        stream_rows(table, [make()])
    assert table.row_count is None


def test_only_ingest_looks_names_up_in_the_header():
    # RawTable.resolve is the one lookup of column names in the header, so
    # every consumer and the config check agree on what is absent
    lookups = {}
    for path in sorted(Path(odqa.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lookups[path.name] = text.count("column_index(") + text.count("headers.index(")
    assert {name: n for name, n in lookups.items() if n} == {"ingest.py": 1}
