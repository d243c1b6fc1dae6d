"""Expected results computed apart from odqa.

This module uses only csv, datetime, zoneinfo, hashlib and collections,
and never imports odqa, so a fault in odqa cannot also hide here. It
re-derives each audited count from the rules as the README states them,
with the system tz database in place of odqa's own zone table.
"""

import csv
import datetime as dt
import hashlib
import zoneinfo
from collections import Counter

NY = zoneinfo.ZoneInfo("America/New_York")
UTC = dt.timezone.utc
PORTAL_FMT = "%m/%d/%Y %I:%M:%S %p"
SENTINEL = dt.date(1900, 1, 1)
DAY = 86400
MISSING_TOKENS = ("", "NA", "N/A", "<NA>")

# report rule id -> oracle count name
RULE_COUNTS = {
    "negative_duration": "negative",
    "zero_duration": "zero",
    "sentinel_date": "sentinel",
    "extreme_duration": "extreme",
    "dst_gap_invalid": "dst_gap",
    "invalid_value": "invalid_zip",
    "duplicate_key": "duplicate_keys",
    "post_close_update": "post_close",
    "post_close_infeasible": "post_close_infeasible",
    "unparseable_timestamp": "unparseable",
}


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def normalize(header: str) -> str:
    return "_".join(header.lower().split())


def is_present(value: str) -> bool:
    token = value.strip()
    return token not in MISSING_TOKENS and token.lower() != "null"


def parse(value: str):
    try:
        return dt.datetime.strptime(value, PORTAL_FMT)
    except ValueError:
        return None


def in_gap(t: dt.datetime) -> bool:
    """True for a wall time that the spring-forward change skips."""
    return t.replace(tzinfo=NY).astimezone(UTC).astimezone(NY).replace(tzinfo=None) != t


def epoch(t: dt.datetime) -> float:
    # fold=0 is the earlier reading of a repeated hour, i.e. the earliest UTC instant
    return t.replace(tzinfo=NY, fold=0).timestamp()


def read_reference(path) -> set:
    with open(path, encoding="utf-8") as fh:
        lines = (line.strip() for line in fh)
        return {line for line in lines if line and not line.startswith("#")}


def audit_counts(csv_path, zips_path, *, cutoff_days: int, window_days: int) -> dict:
    """Per-rule counts plus per-column present counts and exact value counts."""
    cutoff = cutoff_days * DAY
    window = window_days * DAY
    valid_zips = read_reference(zips_path)
    counts = Counter()
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        headers = [normalize(h) for h in next(reader)]
        col = {name: i for i, name in enumerate(headers)}
        values = [Counter() for _ in headers]
        i_key, i_zip = col["unique_key"], col["incident_zip"]
        i_created, i_closed = col["created_date"], col["closed_date"]
        i_updated = col["resolution_action_updated_date"]
        rows = 0
        for row in reader:
            rows += 1
            for i, v in enumerate(row):
                if is_present(v):
                    values[i][v] += 1

            stamps = []
            for i in (i_created, i_closed, i_updated):
                t = None
                if is_present(row[i]):
                    t = parse(row[i])
                    if t is None:
                        counts["unparseable"] += 1
                stamps.append(t)
            created, closed, updated = stamps

            for t in (created, closed):
                if t is None:
                    continue
                if in_gap(t):
                    counts["dst_gap"] += 1
                if t.date() == SENTINEL:
                    counts["sentinel"] += 1
                if (t.hour, t.minute, t.second) == (0, 0, 0):
                    counts["midnight"] += 1

            if created and closed and not in_gap(created) and not in_gap(closed):
                seconds = epoch(closed) - epoch(created)
                counts["negative"] += seconds < 0
                counts["zero"] += seconds == 0
                counts["extreme"] += abs(seconds) > cutoff

            if closed and updated and not in_gap(closed) and not in_gap(updated):
                lag = epoch(updated) - epoch(closed)
                if abs(lag) > cutoff:
                    counts["post_close_infeasible"] += 1
                elif lag > window:
                    counts["post_close"] += 1

            z = row[i_zip]
            if is_present(z) and z not in valid_zips:
                counts["invalid_zip"] += 1

    counts["duplicate_keys"] = sum(1 for n in values[i_key].values() if n > 1)
    return {
        "rows": rows,
        "sha256": file_sha256(csv_path),
        "counts": counts,
        "columns": {name: values[i] for i, name in enumerate(headers)},
    }


def audit_problems(report: dict, expected: dict, *, distinct_cap: int, sketch_capacity: int) -> list:
    """Differences between an odqa report.json and audit_counts, as messages."""
    problems = []
    dataset = report["dataset"]
    if dataset["sha256"] != expected["sha256"]:
        problems.append("dataset sha256 differs from the input's")
    if dataset["row_count"] != expected["rows"]:
        problems.append(f"row_count {dataset['row_count']} != {expected['rows']}")

    got = report["finding_counts"]
    for rule, name in RULE_COUNTS.items():
        if got.get(rule, 0) != expected["counts"][name]:
            problems.append(f"{rule}: {got.get(rule, 0)} != {expected['counts'][name]}")
    midnight = report["sections"]["temporal"]["midnight"]["count"]
    if midnight != expected["counts"]["midnight"]:
        problems.append(f"midnight: {midnight} != {expected['counts']['midnight']}")

    profiles = {p["field"]: p for p in report["sections"]["profiles"]}
    if set(profiles) != set(expected["columns"]):
        problems.append("profiled columns differ from the header")
    for name, true_counts in expected["columns"].items():
        prof = profiles.get(name)
        if prof is None:
            continue
        present = sum(true_counts.values())
        distinct = len(true_counts)
        if prof["present"] != present:
            problems.append(f"{name}: present {prof['present']} != {present}")
        if prof["approximate"] != (distinct > distinct_cap):
            problems.append(f"{name}: approximate={prof['approximate']} with {distinct} distinct")
        elif not prof["approximate"] and prof["distinct"] != distinct:
            problems.append(f"{name}: distinct {prof['distinct']} != {distinct}")
        elif prof["approximate"]:
            # Space-Saving: true <= reported <= true + N/m (Metwally et al., ICDT 2005)
            slack = present / sketch_capacity
            for value, reported in prof["top_values"]:
                true = true_counts.get(value, 0)
                if not true <= reported <= true + slack:
                    problems.append(f"{name}: sketch count {reported} for {value!r}, true {true}")
                    break
    return problems


def quote(value: str) -> str:
    """RFC 4180 minimal quoting, as csv.writer's QUOTE_MINIMAL writes it."""
    if '"' in value:
        return '"' + value.replace('"', '""') + '"'
    if "," in value or "\n" in value or "\r" in value:
        return '"' + value + '"'
    return value


def reduced_bytes(csv_path, *, removed: set, encoded: set) -> int:
    """Size of the reduced main table by an independent rewrite.

    removed and encoded hold normalized column names; codes are zero-padded
    first-appearance ordinals, as wide as the largest code needs.
    """
    def read():
        with open(csv_path, newline="", encoding="utf-8") as fh:
            yield from csv.reader(fh)

    rows = read()
    headers = [normalize(h) for h in next(rows)]
    keep = [i for i, name in enumerate(headers) if name not in removed]
    distinct = {i: set() for i in keep if headers[i] in encoded}
    for row in rows:
        for i, seen in distinct.items():
            if is_present(row[i]):
                seen.add(row[i])
    codes = {i: {} for i in distinct}
    widths = {i: len(str(max(len(seen) - 1, 0))) for i, seen in distinct.items()}

    rows = read()
    next(rows)
    total = len(",".join(headers[i] for i in keep).encode("utf-8")) + 1
    for row in rows:
        cells = []
        for i in keep:
            v = row[i]
            if i in codes:
                table = codes[i]
                v = table.setdefault(v, str(len(table)).zfill(widths[i])) if is_present(v) else ""
            cells.append(quote(v))
        total += len(",".join(cells).encode("utf-8")) + 1
    return total
