"""Storage reduction: plan, apply, reconstruct.

A plan lists drop / segregate / encode actions built from profiles and
pair statistics, with byte estimates and a lossless label; lossy drops
must be acknowledged in config. Apply writes, in one pass, the reduced
main file, sidecars (the non-empty cells of sparse columns, keyed by their
1-based row ordinal) and dictionaries (encoded columns); reconstruct
inverts a lossless plan, merging each sidecar into the reduced file batch
by batch. Both read through ingest.read_records, which refuses any bad
record, build whole columns of REDUCE_BATCH_ROWS rows and write each batch
through _write_columns as one string, quoting what csv.writer was seen to
quote.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field as dc_field
from itertools import compress, repeat
from pathlib import Path
from typing import Sequence

from .errors import PlanError
from .findings import Measurement, make_finding
from .ingest import DEFAULT_CLASSIFIER, REFUSE_INPUT, REFUSE_OWN, MissingClassifier, RawTable, read_records
from .profiling import ColumnProfile
from .redundancy import ConcatStats, PairMatchStats

REDUCE_BATCH_ROWS = 64      # apply/rebuild batch; 256 rows of 1.1 KB raised peak RSS by 2%
DEFAULT_SPARSE_THRESHOLD = 99.0
DEFAULT_ENCODE_CAP = 100_000

PLAN_SCHEMA_VERSION = 1


class EncodeCapExceeded(PlanError):
    pass


def _csv_line(field: str) -> str:
    csv.writer(buf := io.StringIO(), lineterminator="\n").writerow([field])
    return buf.getvalue()[:-1]      # what csv.writer writes for a row of one field, minus the LF


# csv.writer quotes a field for its dialect's characters, all ASCII here, and
# writes a row of one empty field quoted so that it is not a blank line
_QUOTED = "".join(c for c in map(chr, range(128)) if _csv_line(c) != c)
_ONE_EMPTY = _csv_line("")


def _quoted(column: Sequence[str]) -> Sequence[str]:
    """The column with the fields csv.writer would quote quoted, found by C
    scans; only the flagged cells are rebuilt."""
    joined = "\x00".join(column)
    found = [c for c in _QUOTED if c in joined]
    if not found:
        return column
    flags = map(any, zip(*(map(str.__contains__, column, repeat(c)) for c in found)))
    column = list(column)
    for i in compress(range(len(column)), flags):
        column[i] = '"' + column[i].replace('"', '""') + '"'
    return column


def _write_columns(fh, columns: Sequence[Sequence[str]], rows: int) -> None:
    """Write `rows` rows given as equal-length columns, byte for byte as
    csv.writer(fh, lineterminator="\\n").writerows would, as one string."""
    if not rows:
        return
    if not columns:
        return fh.write("\n" * rows)       # a row of no fields is a blank line
    columns = [_quoted(c) for c in columns]
    if len(columns) == 1:
        columns[0] = [v or _ONE_EMPTY for v in columns[0]]
    fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


def code_width_for(entry_count: int) -> int:
    """Digits needed for zero-based codes; at least 1 even for 0 or 1 entries."""
    if entry_count <= 1:
        return 1
    return len(str(entry_count - 1))


@dataclass(frozen=True)
class ValueDictionary:
    """Code table for one encoded column, codes in first-appearance order."""

    field: str
    entries: tuple[str, ...]

    @property
    def code_width(self) -> int:
        return code_width_for(len(self.entries))

    def code_list(self) -> list[str]:    # the code of each entry, in entry order
        width = self.code_width
        return [str(i).zfill(width) for i in range(len(self.entries))]

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            _write_columns(fh, [["code", *self.code_list()], ["value", *self.entries]], len(self.entries) + 1)

    @classmethod
    def read_csv(cls, field: str, path: str | Path) -> "ValueDictionary":
        """Read what write_csv wrote; PlanError names the row of a bad record or code."""
        batches = read_records(path, REDUCE_BATCH_ROWS, REFUSE_OWN)
        if next(batches)[1] != ["code", "value"]:
            raise PlanError(f"{path}: expected header code,value")
        entries = []
        for ordinals, rows in batches:
            for o, (code, value) in zip(ordinals, rows):
                if not code.isdecimal() or int(code) != o - 1:
                    raise PlanError(f"{path}: row {o}: malformed entry at position {o - 1}")
                entries.append(value)
        return cls(field, tuple(entries))


ACTION_KINDS = ("drop", "segregate", "encode")


@dataclass
class PlanAction:
    kind: str
    field: str
    reason: str
    lossless: bool
    estimated_bytes_saved: int
    details: dict = dc_field(default_factory=dict)
    measured_bytes_saved: int | None = None

    def as_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "field": self.field,
            "reason": self.reason,
            "lossless": self.lossless,
            "estimated_bytes_saved": self.estimated_bytes_saved,
            "details": self.details,
        }
        if self.measured_bytes_saved is not None:
            out["measured_bytes_saved"] = self.measured_bytes_saved
        return out


@dataclass
class ReductionPlan:
    baseline_bytes: int
    row_count: int
    headers: list[str]               # original column order, normalized names
    actions: list[PlanAction]
    notes: list[str] = dc_field(default_factory=list)
    raw_headers: list[str] | None = None   # as they appeared in the source file

    @property
    def estimated_total_saved(self) -> int:
        return sum(a.estimated_bytes_saved for a in self.actions)

    @property
    def estimated_pct(self) -> float:
        if self.baseline_bytes == 0:
            return 0.0
        return 100.0 * self.estimated_total_saved / self.baseline_bytes

    def actions_of(self, kind: str) -> list[PlanAction]:
        return [a for a in self.actions if a.kind == kind]

    def as_dict(self) -> dict:
        return {
            "schema_version": PLAN_SCHEMA_VERSION,
            "baseline_bytes": self.baseline_bytes,
            "row_count": self.row_count,
            "headers": list(self.headers),
            "raw_headers": None if self.raw_headers is None else list(self.raw_headers),
            "actions": [a.as_dict() for a in self.actions],
            "estimated_total_saved": self.estimated_total_saved,
            "estimated_pct": round(self.estimated_pct, 4),
            "notes": list(self.notes),
        }

    def write_json(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True, ensure_ascii=False)
            fh.write("\n")

    @classmethod
    def read_json(cls, path: str | Path) -> "ReductionPlan":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        try:
            actions = [
                PlanAction(
                    kind=a["kind"],
                    field=a["field"],
                    reason=a["reason"],
                    lossless=a["lossless"],
                    estimated_bytes_saved=a["estimated_bytes_saved"],
                    details=a.get("details", {}),
                    measured_bytes_saved=a.get("measured_bytes_saved"),
                )
                for a in data["actions"]
            ]
            plan = cls(
                baseline_bytes=data["baseline_bytes"],
                row_count=data["row_count"],
                headers=list(data["headers"]),
                actions=actions,
                notes=list(data.get("notes", [])),
                raw_headers=(
                    None if data.get("raw_headers") is None else list(data["raw_headers"])
                ),
            )
        except (KeyError, TypeError) as exc:
            raise PlanError(f"{path}: malformed plan ({exc})") from exc
        _validate_plan(plan)
        return plan


@dataclass
class PlanPolicy:
    sparse_threshold: float = DEFAULT_SPARSE_THRESHOLD
    encode_cap: int = DEFAULT_ENCODE_CAP
    encode_fields: Sequence[str] = ()
    drop_fields: Sequence[str] = ()           # explicit extra drops
    segregate_fields: Sequence[str] | None = None  # None = auto by sparsity
    allow_lossy: Sequence[str] = ()
    auto_drop_duplicates: bool = True
    drop_concat_targets: bool = True
    protected_fields: Sequence[str] = ()


def _column_footprint(profile: ColumnProfile, row_count: int) -> int:
    # cell text plus one separator per row plus the header cell and its separator
    return profile.raw_chars + row_count + len(profile.field) + 1


def _validate_plan(plan: ReductionPlan) -> None:
    header_set = set(plan.headers)
    removed: set[str] = set()
    encoded: set[str] = set()
    for action in plan.actions:
        if action.kind not in ACTION_KINDS:
            raise PlanError(f"unknown action kind {action.kind!r}")
        f = action.field
        if f not in header_set:
            raise PlanError(f"plan references unknown field {f!r}")
        if action.kind in ("drop", "segregate"):
            if f in removed:
                raise PlanError(f"field {f!r} targeted by more than one drop/segregate")
            if f in encoded:
                raise PlanError(f"field {f!r} is both encoded and removed")
            removed.add(f)
        else:
            if f in removed:
                raise PlanError(f"field {f!r} is both encoded and removed")
            if f in encoded:
                raise PlanError(f"field {f!r} encoded twice")
            encoded.add(f)


def build_plan(
    profiles: Sequence[ColumnProfile],
    pair_stats: Sequence[PairMatchStats],
    policy: PlanPolicy = PlanPolicy(),
    *,
    baseline_bytes: int,
    row_count: int,
    key_field: str | None = None,
    concat_stats: Sequence[ConcatStats] = (),
    raw_headers: Sequence[str] | None = None,
    emit=None,
) -> ReductionPlan:
    """Assemble a reduction plan from completed pass statistics.

    Drop candidates come from pair statistics (perfect co-present match
    with equal blank masks reads as lossless; config may force others as
    acknowledged lossy drops), plus concatenation targets that match
    their template on every considered row. Segregation targets are the
    mostly-blank columns at or past the sparse threshold whose estimated
    sidecar is smaller than the column. Encode actions cover the
    requested fields when their distinct count fits the cap and the value
    text is wider than the code; refusals are findings, not errors. Conflicting instructions and unacknowledged lossy drops
    raise PlanError.
    """
    sink = emit if emit is not None else (lambda f: None)
    by_field = {p.field: p for p in profiles}
    headers = [p.field for p in profiles]
    protected = set(policy.protected_fields)
    if key_field:
        protected.add(key_field)

    def profile_of(name: str, why: str) -> ColumnProfile:
        prof = by_field.get(name)
        if prof is None:
            raise PlanError(f"{why}: unknown field {name!r}")
        return prof

    actions: list[PlanAction] = []
    notes: list[str] = []
    planned_remove: set[str] = set()

    def add_drop(field: str, reason: str, lossless: bool, details: dict) -> None:
        prof = profile_of(field, "drop")
        if field in protected:
            raise PlanError(f"refusing to drop protected field {field!r}")
        if field in planned_remove:
            return
        if not lossless and field not in policy.allow_lossy:
            raise PlanError(
                f"drop of {field!r} is lossy; add it to allow_lossy to acknowledge"
            )
        actions.append(PlanAction(
            kind="drop",
            field=field,
            reason=reason,
            lossless=lossless,
            estimated_bytes_saved=_column_footprint(prof, row_count),
            details=details,
        ))
        planned_remove.add(field)

    if policy.auto_drop_duplicates:
        for stats in pair_stats:
            if stats.rate_both_present == 1.0 and stats.blank_masks_equal:
                add_drop(
                    stats.field_b,
                    f"byte-identical to {stats.field_a!r} on every row",
                    True,
                    {"duplicate_of": stats.field_a},
                )

    if policy.drop_concat_targets:
        for stats in concat_stats:
            if stats.rate == 1.0:
                add_drop(
                    stats.target,
                    f"rebuildable from {stats.source_a!r} and {stats.source_b!r}",
                    True,
                    {
                        "concat_of": [stats.source_a, stats.source_b],
                        "template": stats.template,
                    },
                )

    for field in policy.drop_fields:
        if field in planned_remove:
            continue
        lossless = False
        details: dict = {}
        for stats in pair_stats:
            if stats.field_b == field and stats.rate_both_present == 1.0 and stats.blank_masks_equal:
                lossless = True
                details = {"duplicate_of": stats.field_a}
                break
        add_drop(field, "requested in config", lossless, details)

    def sidecar_bytes(prof: ColumnProfile) -> int:
        # the sidecar holds every non-empty cell, missing tokens included
        cells = prof.total - prof.missing.get("empty", 0)
        return prof.raw_chars + cells * (len(str(row_count)) + 2) + len(prof.field) + 5

    if policy.segregate_fields is None:
        segregate = [
            p.field for p in profiles
            if p.blank_pct >= policy.sparse_threshold and p.field not in planned_remove
            and p.field not in protected and p.total > 0
            and sidecar_bytes(p) < _column_footprint(p, row_count)
        ]
    else:
        segregate = [f for f in policy.segregate_fields if f not in planned_remove]
    for field in segregate:
        if field in protected:
            raise PlanError(f"refusing to segregate protected field {field!r}")
        prof = profile_of(field, "segregate")
        actions.append(PlanAction(
            kind="segregate",
            field=field,
            reason=f"{prof.blank_pct:.1f}% blank; present rows move to a sidecar",
            lossless=True,
            estimated_bytes_saved=_column_footprint(prof, row_count),
            details={"blank_pct": round(prof.blank_pct, 4), "estimated_sidecar_bytes": sidecar_bytes(prof)},
        ))
        planned_remove.add(field)

    for field in policy.encode_fields:
        if field in protected:
            raise PlanError(f"refusing to encode protected field {field!r}")
        if field in planned_remove:
            raise PlanError(f"field {field!r} is both encoded and removed")
        prof = profile_of(field, "encode")
        if prof.approximate or prof.distinct > policy.encode_cap:
            sink(make_finding(
                "encode_refused",
                f"{field!r} has {'at least ' if prof.approximate else ''}{prof.distinct} "
                f"distinct values (cap {policy.encode_cap}); left as text",
                fields=(field,),
                measured=Measurement(prof.distinct, "distinct"),
            ))
            continue
        width = code_width_for(prof.distinct)
        if prof.present == 0 or prof.raw_chars <= prof.present * width:
            sink(make_finding(
                "encode_refused",
                f"{field!r} values are not wider than a {width}-digit code; encoding would not save bytes",
                fields=(field,),
                measured=Measurement(width, "code_width"),
            ))
            continue
        dict_est = prof.raw_chars // max(prof.present, 1) * prof.distinct + prof.distinct * (width + 2) + 11
        actions.append(PlanAction(
            kind="encode",
            field=field,
            reason=f"{prof.distinct} distinct values fit {width}-digit codes",
            lossless=True,
            estimated_bytes_saved=prof.raw_chars - prof.present * width,
            details={
                "distinct": prof.distinct,
                "code_width": width,
                "estimated_dictionary_bytes": dict_est,
            },
        ))

    order = {"drop": 0, "segregate": 1, "encode": 2}
    actions.sort(key=lambda a: (order[a.kind], a.field))
    if raw_headers is not None and len(raw_headers) != len(headers):
        raise PlanError("raw_headers length does not match the profiled columns")
    plan = ReductionPlan(
        baseline_bytes=baseline_bytes,
        row_count=row_count,
        headers=headers,
        actions=actions,
        notes=notes,
        raw_headers=None if raw_headers is None else list(raw_headers),
    )
    _validate_plan(plan)
    return plan


@dataclass
class ApplyResult:
    main_path: Path
    sidecar_paths: dict[str, Path]
    dictionary_paths: dict[str, Path]
    bytes_before: int
    bytes_after_main: int
    sidecar_bytes: int
    dictionary_bytes: int
    rows_written: int
    input_sha256: str     # digest of the input, read by the apply pass; not in as_dict

    @property
    def measured_saved(self) -> int:
        return self.bytes_before - self.bytes_after_main

    @property
    def measured_pct(self) -> float:
        if self.bytes_before == 0:
            return 0.0
        return 100.0 * self.measured_saved / self.bytes_before

    def as_dict(self) -> dict:
        return {
            "main_path": str(self.main_path),
            "sidecar_paths": {f: str(p) for f, p in sorted(self.sidecar_paths.items())},
            "dictionary_paths": {f: str(p) for f, p in sorted(self.dictionary_paths.items())},
            "bytes_before": self.bytes_before,
            "bytes_after_main": self.bytes_after_main,
            "sidecar_bytes": self.sidecar_bytes,
            "dictionary_bytes": self.dictionary_bytes,
            "rows_written": self.rows_written,
            "measured_saved": self.measured_saved,
            "measured_pct": round(self.measured_pct, 4),
        }


def apply_plan(
    table: RawTable,
    plan: ReductionPlan,
    out_dir: str | Path,
    *,
    classifier: MissingClassifier = DEFAULT_CLASSIFIER,
    main_name: str = "reduced.csv",
) -> ApplyResult:
    """Execute a plan in one streaming pass of REDUCE_BATCH_ROWS-row batches.

    Kept columns pass through; a segregated column's non-empty cells go to
    its sidecar as `row,<column>` rows, row being the 1-based record
    ordinal; an encoded column is coded once per distinct value, in
    first-appearance order at the planned width. Output bytes depend only
    on input and plan. Measured savings are filled into the plan actions
    and table.row_count is set. A structural mismatch aborts, as does the
    first record read_records refuses (a blank line among them) or
    outgrown code space in row order, removing any partial outputs.
    """
    _validate_plan(plan)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    headers = table.headers
    index_of = {name: i for i, name in enumerate(headers)}
    if plan.headers != headers:     # _validate_plan checked that every action field is in plan.headers
        raise PlanError("plan header order does not match the table; rebuild the plan")

    segregates = [a.field for a in plan.actions_of("segregate")]
    encodes = {a.field: a for a in plan.actions_of("encode")}

    removed = {a.field for a in plan.actions_of("drop")} | set(segregates)
    kept = [name for name in headers if name not in removed]
    kept_idx = [index_of[name] for name in kept]
    kept_pos = {name: pos for pos, name in enumerate(kept)}

    # per-encode state: (position among kept columns, name, value -> code, code width, code count)
    encoders = []
    for name, action in encodes.items():
        width = action.details.get("code_width") or 1
        encoders.append((kept_pos[name], name, {}, width, 10 ** width))

    removed_chars = {name: 0 for name in removed}
    encode_in_chars = {name: 0 for name in encodes}
    encode_out_chars = {name: 0 for name in encodes}

    main_path = out / main_name
    sidecar_paths = {name: out / f"{name}.sidecar.csv" for name in segregates}
    dict_paths = {name: out / f"{name}.dict.csv" for name in encodes}

    kind_of = classifier.kind_of
    rows_written = 0
    opened: list = []
    try:
        main_fh = open(main_path, "w", newline="", encoding="utf-8")
        opened.append(main_fh)
        _write_columns(main_fh, [[name] for name in kept], 1)
        side_cols = []
        for name, p in sidecar_paths.items():
            fh = open(p, "w", newline="", encoding="utf-8")
            opened.append(fh)
            _write_columns(fh, [["row"], [name]], 1)
            side_cols.append((index_of[name], fh))

        batches = read_records(table.path, REDUCE_BATCH_ROWS, REFUSE_INPUT)
        feed, _header = next(batches)   # the header is already read by open_table
        for ordinals, rows in batches:
            n, columns = len(rows), list(zip(*rows))
            for name in removed:
                removed_chars[name] += sum(map(len, columns[index_of[name]]))
            for col_idx, side_fh in side_cols:
                col = columns[col_idx]
                values = list(compress(col, col))
                _write_columns(side_fh, [list(map(str, compress(ordinals, col))), values], len(values))
            # (row in batch, encoder order, error); the first in row-major order is raised
            refusals = []
            out_cols = [columns[i] for i in kept_idx]
            for order, (pos, name, mapping, code_width, limit) in enumerate(encoders):
                col = out_cols[pos]
                encode_in_chars[name] += sum(map(len, col))
                for v in dict.fromkeys(col):
                    if v not in mapping and v and kind_of(v) is None:
                        if len(mapping) >= limit:
                            refusals.append((col.index(v), order, EncodeCapExceeded(
                                f"{name!r}: value {v!r} does not fit the planned "
                                f"{code_width}-digit code space; the file changed since planning"
                            )))
                            break
                        mapping[v] = str(len(mapping)).zfill(code_width)
                out_cols[pos] = codes = list(map(mapping.get, col, repeat("")))
                encode_out_chars[name] += code_width * (n - codes.count(""))
            if refusals:
                raise min(refusals, key=lambda r: r[:2])[2]
            _write_columns(main_fh, out_cols, n)
            rows_written = ordinals[-1]
        input_sha256 = feed.sha256.hexdigest()

        for fh in opened:
            fh.close()
        opened.clear()

        for _pos, name, mapping, code_width, _limit in encoders:
            vd = ValueDictionary(name, tuple(mapping))
            if vd.code_width != code_width:
                raise PlanError(
                    f"{name!r}: observed {len(mapping)} distinct values need "
                    f"{vd.code_width}-digit codes but the plan assumed {code_width}; "
                    f"rebuild the plan"
                )
            vd.write_csv(dict_paths[name])
    except BaseException:
        for fh in opened:
            fh.close()
        for p in [main_path, *sidecar_paths.values(), *dict_paths.values()]:
            if p.exists():
                p.unlink()
        raise

    table.row_count = rows_written      # apply refuses a ragged row, so every record is written
    sidecar_bytes = sum(p.stat().st_size for p in sidecar_paths.values())
    dict_bytes = sum(p.stat().st_size for p in dict_paths.values())
    bytes_after = main_path.stat().st_size

    for action in plan.actions:
        name = action.field
        if action.kind in ("drop", "segregate"):
            action.measured_bytes_saved = (
                removed_chars[name] + rows_written + len(name) + 1
            )
        else:
            action.measured_bytes_saved = encode_in_chars[name] - encode_out_chars[name]

    return ApplyResult(
        main_path=main_path,
        sidecar_paths=sidecar_paths,
        dictionary_paths=dict_paths,
        bytes_before=table.byte_size,
        bytes_after_main=bytes_after,
        sidecar_bytes=sidecar_bytes,
        dictionary_bytes=dict_bytes,
        rows_written=rows_written,
        input_sha256=input_sha256,
    )


def _sidecar_entries(path: str | Path, name: str):
    """(sidecar row, ordinal, value) per record; PlanError names the row of
    a bad record or of an ordinal that is not above the one before it."""
    batches = read_records(path, REDUCE_BATCH_ROWS, REFUSE_OWN)
    header = next(batches)[1]
    if header != ["row", name]:
        raise PlanError(f"{path}: header {','.join(header)!r}, expected 'row,{name}'")
    last = 0
    for ordinals, rows in batches:
        for o, (cell, value) in zip(ordinals, rows):
            if not cell.isdecimal() or int(cell) <= last:
                raise PlanError(f"{path}: row {o}: {cell!r} is not a row ordinal above {last}")
            last = int(cell)
            yield o, last, value


def reconstruct_table(
    plan: ReductionPlan,
    main_path: str | Path,
    out_path: str | Path,
    *,
    sidecar_paths: dict[str, str | Path],
    dictionary_paths: dict[str, str | Path],
    key_field: str | None = None,
) -> None:
    """Invert a lossless reduction for verification, REDUCE_BATCH_ROWS rows at a time.

    Drops are rebuilt from their source or template, encoded columns from
    dictionaries, and segregated columns by merging each sidecar, streamed
    beside the reduced file, into the batch its ordinals fall in. PlanError
    refuses a lossy drop, and names the file and the row of a record
    read_records refuses (a blank line too), of a cell not in its
    dictionary, of a sidecar header other than row,<column> and of a
    sidecar ordinal that does not rise or is past the reduced file's end.
    key_field is accepted and unused, as sidecars are keyed by ordinal; the
    criterion 5 acceptance test and perfbench/child.py still pass it.
    """
    plan_headers = plan.headers
    drops = plan.actions_of("drop")
    for action in drops:
        if "duplicate_of" not in action.details and "concat_of" not in action.details:
            raise PlanError(f"drop of {action.field!r} is not reconstructible")

    sidecars: dict[str, list] = {}      # field -> [entries, next entry or None]
    for action in plan.actions_of("segregate"):
        entries = _sidecar_entries(sidecar_paths[action.field], action.field)
        sidecars[action.field] = [entries, next(entries, None)]

    decoders: dict[str, dict[str, str]] = {}
    for action in plan.actions_of("encode"):
        vd = ValueDictionary.read_csv(action.field, dictionary_paths[action.field])
        decoders[action.field] = {"": "", **dict(zip(vd.code_list(), vd.entries))}

    batches = read_records(main_path, REDUCE_BATCH_ROWS, REFUSE_OWN)
    kept = next(batches)[1]
    kept_pos = {name: i for i, name in enumerate(kept)}
    builders: dict[str, tuple] = {}
    for action in drops:
        if "duplicate_of" in action.details:
            src = action.details["duplicate_of"]
            if src not in kept_pos:
                raise PlanError(f"cannot rebuild {action.field!r}: source {src!r} was removed too")
            builders[action.field] = ("copy", kept_pos[src])
        else:
            a, b = action.details["concat_of"]
            template = action.details["template"]
            prefix, rest = template.split("{a}", 1)
            middle, suffix = rest.split("{b}", 1)
            if a not in kept_pos or b not in kept_pos:
                raise PlanError(f"cannot rebuild {action.field!r}: sources were removed")
            builders[action.field] = ("concat", kept_pos[a], kept_pos[b], prefix, middle, suffix)

    last = 0
    with open(out_path, "w", newline="", encoding="utf-8") as out_fh:
        header = plan.raw_headers if plan.raw_headers is not None else plan_headers
        _write_columns(out_fh, [[name] for name in header], 1)
        for ordinals, rows in batches:
            # a reduced file's ordinals are contiguous: REFUSE_OWN refuses blank lines
            first, last = ordinals[0], ordinals[-1]
            columns = list(zip(*rows))
            out_cols = []
            for name in plan_headers:
                pos = kept_pos.get(name)
                if pos is not None:
                    col = columns[pos]
                    decode = decoders.get(name)
                    if decode is not None:
                        col = list(map(decode.get, col))
                        if None in col:
                            i = col.index(None)
                            raise PlanError(f"{main_path}: row {ordinals[i]}: {name!r} cell "
                                            f"{columns[pos][i]!r} is not a code in its dictionary")
                    out_cols.append(col)
                elif name in sidecars:
                    entries, ahead = sidecars[name]
                    out_cols.append(col := [""] * len(rows))
                    while ahead is not None and ahead[1] <= last:
                        col[ahead[1] - first] = ahead[2]
                        ahead = next(entries, None)
                    sidecars[name][1] = ahead
                elif builders[name][0] == "copy":
                    out_cols.append(columns[builders[name][1]])
                else:
                    _, ia, ib, prefix, middle, suffix = builders[name]
                    out_cols.append([
                        f"{prefix}{va}{middle}{vb}{suffix}" if va and vb else ""
                        for va, vb in zip(columns[ia], columns[ib])
                    ])
            _write_columns(out_fh, out_cols, len(rows))
    for name, (_entries, ahead) in sidecars.items():
        if ahead is not None:
            raise PlanError(f"{sidecar_paths[name]}: row {ahead[0]}: ordinal {ahead[1]} "
                            f"is past the reduced file's last row {last}")
