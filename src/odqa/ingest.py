"""Streaming CSV ingest.

read_records reads RFC 4180 files (comma delimiter, double-quote quoting
with quote doubling, LF or CRLF line ends, UTF-8 with optional BOM) in
bounded memory for every pass; apply and the rebuild refuse what the
audit reports. One stream_rows pass drives any number of consumers, so
every audit check shares one read of the file. Delivered rows reach
consumers in batches of BATCH_ROWS: stream_rows transposes each batch
once, and the batch counts each column's distinct values, finds its
missing values and parses its timestamps (column-wise, into integer
epochs) on first request, for every consumer at once. A consumer then
judges each distinct value once and walks the rows only where findings
must come out in row order, which keeps the per-cell cost low enough for
multi-gigabyte inputs.

This module owns the run's row semantics. stream_rows takes the
missing-value classifier, the timestamp parser and the key and agency
columns once, and every batch answers from them: which cells are
missing, what a timestamp parses to, where a row is (its key if
present, else its ordinal) and which agency it belongs to. Consumers
ask the batch and take none of these themselves.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import os
from collections import Counter
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Callable, Iterable, Mapping

from .errors import InputError, PlanError
from .findings import Finding, make_finding
from .timestamps import Readings, TimestampParser

log = logging.getLogger(__name__)

BOM = b"\xef\xbb\xbf"
_CHUNK = 1 << 18    # _fill holds about four times this at once
BATCH_ROWS = 256    # delivered rows per Batch; larger batches raise peak memory

# canonical missing-value kinds, in reporting order
MISSING_KINDS = ("empty", "whitespace", "NA", "N/A", "angle_NA", "null_literal")

_DEFAULT_TOKENS: dict[str, str] = {
    "NA": "NA",
    "N/A": "N/A",
    "<NA>": "angle_NA",
}

_WHITESPACE = " \t\r\n\x0b\x0c"


class MissingClassifier:
    """Maps raw cell text to a missing kind, or None for present values.

    Classification looks at the trimmed token: "" is empty, all-whitespace
    is whitespace, and the token table covers the textual sentinels. The
    null literal check is case-insensitive ("null", "NULL", "Null" all
    count); the other sentinels match exactly as the portal emits them.
    Extra tokens can be added from config, mapped to any canonical kind.
    """

    def __init__(self, extra_tokens: Mapping[str, str] | None = None):
        self._tokens = dict(_DEFAULT_TOKENS)
        if extra_tokens:
            for token, kind in extra_tokens.items():
                if kind not in MISSING_KINDS:
                    raise ValueError(f"unknown missing kind {kind!r} for token {token!r}")
                self._tokens[token.strip()] = kind
        # first characters that could start a missing value; anything else
        # is present without further inspection
        suspects = set(_WHITESPACE)
        for token in self._tokens:
            if token:
                suspects.add(token[0])
        suspects.update("nN")  # null literal, any case
        self.suspect_first = frozenset(suspects)

    def kind_of(self, raw: str) -> str | None:
        if not raw:
            return "empty"
        if raw[0] not in self.suspect_first:
            return None
        token = raw.strip()
        if not token:
            return "whitespace"
        kind = self._tokens.get(token)
        if kind is not None:
            return kind
        if token.lower() == "null":
            return "null_literal"
        return None


DEFAULT_CLASSIFIER = MissingClassifier()


_ALLOWED = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_")


def normalize_header(raw: str) -> str:
    """Normalize a raw header to a lowercase identifier.

    Lowercases, collapses whitespace runs to single underscores, replaces
    any character outside [a-z0-9_] with an underscore, then trims leading
    and trailing underscores from the result.

    Raises ValueError if nothing survives normalization.
    """
    s = "_".join(raw.lower().split())
    s = "".join(ch if ch in _ALLOWED else "_" for ch in s)
    s = s.strip("_")
    if not s:
        raise ValueError(f"header {raw!r} is empty after normalization")
    return s


@dataclass
class RawTable:
    """A CSV file plus its normalized header row.

    row_count is None until a full pass has run; byte_size comes from the
    filesystem at open time.
    """

    path: Path
    raw_headers: list[str]
    headers: list[str]
    byte_size: int
    has_bom: bool
    header_findings: list[Finding] = dc_field(default_factory=list)
    row_count: int | None = None

    @property
    def width(self) -> int:
        return len(self.headers)

    def resolve(self, names: Iterable[str]) -> list[int]:
        """The column index of each name, in order: odqa's one lookup of
        names in the header. Raises AbsentColumns naming every name the
        header lacks."""
        names = list(names)
        absent = [n for n in names if n not in self.headers]
        if absent:
            raise AbsentColumns(absent)
        return [self.headers.index(n) for n in names]


class AbsentColumns(ValueError):
    """Columns that a check or the config names and the header lacks."""

    def __init__(self, names: Iterable[str]):
        self.names = list(dict.fromkeys(names))
        super().__init__("column(s) not in the header: " + ", ".join(map(repr, self.names)))


class RowSemantics:
    """What every Batch of one stream shares: the missing-value classifier,
    the timestamp parser, and the indexes of the key and agency columns
    (None when unmapped or absent from the header)."""

    __slots__ = ("classifier", "parser", "key_index", "agency_index")

    def __init__(
        self,
        table: RawTable,
        emit: Callable[[Finding], None],
        *,
        classifier: MissingClassifier = DEFAULT_CLASSIFIER,
        parser: TimestampParser | None = None,
        key_field: str | None = None,
        agency_field: str | None = None,
    ):
        """Resolve the mapped columns against table's header. An agency
        column the header lacks is reported through emit and treated as
        unmapped; a missing key column falls back to row ordinals."""
        def index(name):
            try:
                return table.resolve([name])[0] if name else None
            except AbsentColumns:
                return None

        self.classifier = classifier
        self.parser = parser if parser is not None else TimestampParser()
        self.key_index = index(key_field)
        self.agency_index = index(agency_field)
        if agency_field and self.agency_index is None:
            emit(make_finding(
                "agency_field_missing",
                f"configured agency field {agency_field!r} is not in the header",
                fields=(agency_field,),
            ))


class Batch:
    """Up to BATCH_ROWS delivered rows, in stream order, as columns.

    ordinals holds the 1-based data row ordinal of each row and columns
    the transpose of the rows. Every batch of a stream shares one
    RowSemantics, so what a missing cell is, how a timestamp parses and
    how a row is located are decided once, here, for every consumer.
    counts, missing, parsed, locators and agencies are computed on the
    first request and kept only as long as the batch; callers must not
    mutate what they return.
    """

    __slots__ = (
        "ordinals", "columns", "_semantics", "_counts", "_missing", "_parsed", "_parsed_columns", "_locators",
        "_agencies",
    )

    def __init__(self, ordinals: list[int], rows: list[list[str]], semantics: RowSemantics):
        self.ordinals = ordinals
        self.columns = list(zip(*rows))
        self._semantics = semantics
        self._counts: dict[int, Counter] = {}
        self._missing: dict[int, dict[str, str]] = {}
        self._parsed = Readings()
        self._parsed_columns: set[int] = set()
        self._locators: list | None = None
        self._agencies: list | None = None

    def counts(self, i: int) -> Counter:
        """Each distinct value of column i and its count, in first-appearance order."""
        counts = self._counts.get(i)
        if counts is None:
            counts = self._counts[i] = Counter(self.columns[i])
        return counts

    def missing(self, i: int) -> dict[str, str]:
        """The missing values of column i mapped to their kind, in first-appearance order."""
        missing = self._missing.get(i)
        if missing is None:
            suspect = self._semantics.classifier.suspect_first
            kind_of = self._semantics.classifier.kind_of
            missing = self._missing[i] = {
                v: kind for v in self.counts(i)
                if (not v or v[0] in suspect) and (kind := kind_of(v)) is not None
            }
        return missing

    def parsed(self, i: int) -> Readings:
        """The parser's readings for this batch, one Readings shared by
        every column, holding at least each present value of column i.

        The values not read yet go through TimestampParser.parse_many in
        one call, so most are parsed column-wise into integer wall and
        UTC epochs; only the few it leaves to the per-value parser (a
        transition day, a format without a shape, no format matched) get
        a LocalTimestamp, in fallback.
        """
        done = self._parsed
        if i not in self._parsed_columns:
            self._parsed_columns.add(i)
            new = self.counts(i).keys() - self.missing(i).keys() - done.wall.keys() - done.fallback.keys()
            if new:
                self._semantics.parser.parse_many(new, done)
        return done

    def locators(self) -> list:
        """Per row, its key cell when a key is mapped and the cell is
        present, else its 1-based ordinal."""
        if self._locators is None:
            k = self._semantics.key_index
            if k is None:
                self._locators = self.ordinals
            else:
                absent = self.missing(k)
                self._locators = [o if v in absent else v for o, v in zip(self.ordinals, self.columns[k])]
        return self._locators

    def agencies(self) -> list | None:
        """Per row, its agency cell when present, else None; None as a
        whole when no agency is mapped."""
        a = self._semantics.agency_index
        if a is None:
            return None
        if self._agencies is None:
            absent = self.missing(a)
            self._agencies = [None if v in absent else v for v in self.columns[a]]
        return self._agencies


class RowConsumer:
    """Base class for streaming consumers.

    start() runs once before the first batch, consume_batch() once per
    Batch of delivered rows, in stream order, finish() once after the
    last. A consumer names the columns it reads in `columns`; start
    resolves them into `indexes`, in the same order, and raises
    AbsentColumns naming every one the header lacks.
    """

    columns: tuple[str, ...] = ()

    def start(self, table: RawTable) -> None:
        self.indexes = table.resolve(self.columns)

    def consume_batch(self, batch: Batch) -> None:
        raise NotImplementedError

    def finish(self):  # noqa: B027 - optional hook
        return None


class _LineFeed:
    """Yields decoded lines (terminators kept) while tracking byte offsets.

    Splits strictly on LF so that CR characters and quoted embedded
    newlines survive for the csv module to interpret. next_offset is the
    file offset of the line the next __next__ call will return, which for
    csv parsing is the offset of the upcoming record. sha256 hashes every
    byte read, BOM included, so once the feed is exhausted it is the
    file's digest without a second read. With errors "replace" invalid
    UTF-8 decodes as U+FFFD; with "strict" it raises csv.Error.
    """

    def __init__(self, fh, errors: str):
        self._fh = fh
        self.errors = errors
        self.sha256 = hashlib.sha256()
        self._lines: list[bytes] = []
        self._idx = 0
        self._tail = b""
        self._eof = False
        self.next_offset = 0
        self.has_bom: bool | None = None    # known once the first chunk is read

    def __iter__(self):
        return self

    def _fill(self) -> bool:
        while True:
            chunk = self._fh.read(_CHUNK)
            self.sha256.update(chunk)
            if not chunk:
                self._eof = True
                if self._tail:
                    self._lines = [self._tail]
                    self._tail = b""
                    self._idx = 0
                    return True
                return False
            if self.has_bom is None:
                self.has_bom = chunk.startswith(BOM)
                if self.has_bom:
                    chunk = chunk[len(BOM):]
                    self.next_offset = len(BOM)
            data = self._tail + chunk
            parts = data.split(b"\n")
            self._tail = parts.pop()
            if parts:
                self._lines = [p + b"\n" for p in parts]
                self._idx = 0
                return True

    def __next__(self) -> str:
        if self._idx >= len(self._lines):
            if self._eof or not self._fill():
                raise StopIteration
        line = self._lines[self._idx]
        self._idx += 1
        self.next_offset += len(line)
        try:
            return line.decode("utf-8", errors=self.errors)
        except UnicodeDecodeError as exc:   # read_records refuses it as a bad record
            at = self.next_offset - len(line) + exc.start
            raise csv.Error(f"invalid UTF-8 at byte {at} ({exc.reason})") from None


# the read_records policies that refuse, each the end of its refusal messages
REFUSE_INPUT = "; audit and repair before reducing"
REFUSE_OWN = " in {}"       # formatted with the path


def read_records(path: str | os.PathLike, size: int, policy: Callable[[Finding], None] | str):
    """odqa's one CSV record reader: strict RFC 4180 quoting over path's lines.

    Yields the _LineFeed reading path (its sha256 is the file's once all is
    read) with the header row, then (ordinals, rows) per `size` records of
    the header's width, ordinals 1-based. A bad record has another width or
    quoting the csv reader rejects. An emit callable policy (the audit) gets
    a ragged_row Finding at its ordinal or a malformed_quoting one at its
    start byte, and reading goes on. REFUSE_INPUT (apply) and REFUSE_OWN
    (files odqa wrote) also refuse invalid UTF-8: they yield the rows before
    the bad record, then raise a PlanError naming its row and the byte
    offset of invalid UTF-8. A blank line is not a record, but when refusing,
    as no rebuild restores one, a row of 0 cells. A missing header or
    one the csv reader rejects raises InputError, or PlanError when refusing.
    """
    refuse = None if callable(policy) else policy.format(path)
    with open(path, "rb") as fh:
        feed = _LineFeed(fh, "strict" if refuse else "replace")
        reader = csv.reader(feed, strict=True)
        try:
            header = next(reader)
        except (StopIteration, csv.Error) as exc:
            why = f"header: {exc}" if isinstance(exc, csv.Error) else "no header row"
            raise PlanError(f"{why}{refuse}") if refuse else InputError(f"{path}: {why}") from None
        yield feed, header
        width = len(header)
        ordinal, ordinals, rows, failure = 0, [], [], None
        while True:
            record_offset = feed.next_offset
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:
                if refuse:
                    failure = PlanError(f"row {ordinal + 1}: {exc}{refuse}")
                    break
                policy(make_finding(
                    "malformed_quoting",
                    f"unparseable record near byte {record_offset}: {exc}",
                    row_locator=record_offset,
                ))
                continue
            if not row and not refuse:
                continue
            ordinal += 1
            if len(row) != width:
                if refuse:
                    failure = PlanError(f"row {ordinal}: {len(row)} cells, expected {width}{refuse}")
                    break
                policy(make_finding(
                    "ragged_row",
                    f"row {ordinal} has {len(row)} cells, expected {width}",
                    row_locator=ordinal,
                ))
                continue
            ordinals.append(ordinal)
            rows.append(row)
            if len(rows) == size:
                yield ordinals, rows
                ordinals, rows = [], []
    if rows:
        yield ordinals, rows
    if failure:
        raise failure


def open_table(path: str | os.PathLike) -> RawTable:
    """Read and normalize the header row; the body is not touched.

    Unnamed columns get a synthesized name and an error Finding; collisions
    after normalization get "_2", "_3" suffixes and a warning Finding.
    Raises OSError if the file cannot be opened and InputError if it has
    no header row or one the csv reader rejects.
    """
    p = Path(path)
    findings: list[Finding] = []
    feed, raw_headers = next(read_records(p, BATCH_ROWS, findings.append))

    used: set[str] = set()
    headers: list[str] = []
    for i, raw in enumerate(raw_headers):
        try:
            name = normalize_header(raw)
        except ValueError:
            name = f"column_{i + 1}"
            findings.append(make_finding(
                "unnamed_column",
                f"header cell {i + 1} is empty after normalization; using {name!r}",
                fields=(name,),
            ))
        if name in used:
            base = name
            n = 2
            while f"{base}_{n}" in used:
                n += 1
            name = f"{base}_{n}"
            findings.append(make_finding(
                "header_collision",
                f"header {raw!r} collides with an earlier column after normalization; renamed to {name!r}",
                fields=(base, name),
            ))
        used.add(name)
        headers.append(name)

    return RawTable(
        path=p,
        raw_headers=raw_headers,
        headers=headers,
        byte_size=p.stat().st_size,
        has_bom=bool(feed.has_bom),
        header_findings=findings,
    )


@dataclass
class StreamResult:
    row_count: int        # records parsed, ragged included
    delivered: int        # records handed to consumers
    skipped_malformed: int
    skipped_ragged: int
    sha256: str           # digest of the whole file, read by this pass


def stream_rows(
    table: RawTable,
    consumers: Iterable[RowConsumer],
    emit: Callable[[Finding], None] | None = None,
    *,
    classifier: MissingClassifier = DEFAULT_CLASSIFIER,
    parser: TimestampParser | None = None,
    key_field: str | None = None,
    agency_field: str | None = None,
) -> StreamResult:
    """Stream the table body through the consumers in one pass.

    Each read_records batch reaches each consumer as a Batch of BATCH_ROWS
    rows, the last one shorter, all sharing one RowSemantics built from
    classifier, parser (default: a TimestampParser with the default
    formats), key_field and agency_field. Ragged and malformed records are
    reported through emit and skipped. Unreadable files raise OSError.
    """
    consumers = list(consumers)
    sink = emit if emit is not None else (lambda f: None)
    semantics = RowSemantics(
        table, sink, classifier=classifier, parser=parser, key_field=key_field, agency_field=agency_field,
    )
    for c in consumers:
        c.start(table)

    skipped: Counter = Counter()

    def skip(f: Finding) -> None:
        skipped[f.rule_id] += 1
        sink(f)

    delivered = 0
    batches = read_records(table.path, BATCH_ROWS, skip)
    feed, _header = next(batches)   # the header is already captured by open_table
    for ordinals, rows in batches:
        batch = Batch(ordinals, rows, semantics)
        delivered += len(rows)
        for c in consumers:
            c.consume_batch(batch)
        del batch, rows     # freed before the next batch is read

    malformed, ragged = skipped["malformed_quoting"], skipped["ragged_row"]
    table.row_count = delivered + ragged
    for c in consumers:
        c.finish()
    if malformed or ragged:
        log.info("stream %s: %d malformed, %d ragged of %d records", table.path, malformed, ragged, table.row_count)
    return StreamResult(table.row_count, delivered, malformed, ragged, feed.sha256.hexdigest())
