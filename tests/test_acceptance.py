"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS line on success; a failure reads as the
criterion number in the pytest output. Expected values come from
independent oracles computed inside this module (plain csv/datetime/
zoneinfo scans, closed-form statistics, byte accounting), never from the
engine under test.
"""

import csv
import datetime as dt
import filecmp
import json
import math
import os
import random
import resource
import subprocess
import sys
import textwrap
import time
import zoneinfo
from collections import Counter
from pathlib import Path

import pytest

from odqa.config import load_config
from odqa.dictionary import DataDictionary, FieldDescriptor, check_domains
from odqa.domain_rules import decimal_digits
from odqa.generator import generate_fixture
from odqa.pipeline import run_audit, run_reduce_apply, run_reduce_plan
from odqa.profiling import ProfileCollector
from odqa.redundancy import ConcatChecker, PairCollector, StreetNormalizer
from odqa.temporal import evaluate_hour_histogram, pair_duration
from odqa.timestamps import TimestampParser

from conftest import AUDIT_CONFIG_TEMPLATE, feed

NY = zoneinfo.ZoneInfo("America/New_York")
UTC = dt.timezone.utc
PORTAL_FMT = "%m/%d/%Y %I:%M:%S %p"

DAY = 86400
EXTREME_CUTOFF = 730 * DAY
POST_CLOSE_WINDOW = 30 * DAY
SENTINEL = dt.date(1900, 1, 1)


def ok(n, detail):
    print(f"acceptance criterion {n}: PASS ({detail})")


# --------------------------------------------------------------- criterion 1

def _parse(s):
    try:
        return dt.datetime.strptime(s, PORTAL_FMT)
    except ValueError:
        return None


def _in_gap(t):
    local = t.replace(tzinfo=NY)
    return local.astimezone(UTC).astimezone(NY).replace(tzinfo=None) != t


def _epoch(t):
    # fold=0 picks the first (earliest-UTC) reading of an ambiguous hour
    return t.replace(tzinfo=NY, fold=0).timestamp()


def oracle_scan(csv_path, zip_ref_path):
    """Brute-force row scan with stdlib csv/datetime/zoneinfo only."""
    valid_zips = set()
    for line in Path(zip_ref_path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            valid_zips.add(line)

    counts = Counter()
    keys = Counter()
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        col = {name: i for i, name in enumerate(header)}
        i_key = col["Unique Key"]
        i_created = col["Created Date"]
        i_closed = col["Closed Date"]
        i_updated = col["Resolution Action Updated Date"]
        i_zip = col["Incident Zip"]
        for row in reader:
            tc = _parse(row[i_created]) if row[i_created] else None
            tz = _parse(row[i_closed]) if row[i_closed] else None
            tu = _parse(row[i_updated]) if row[i_updated] else None

            for t in (tc, tz):
                if t is None:
                    continue
                if _in_gap(t):
                    counts["dst_gap"] += 1
                if t.date() == SENTINEL:
                    counts["sentinel"] += 1
                if (t.hour, t.minute, t.second) == (0, 0, 0):
                    counts["midnight"] += 1

            if tc and tz and not _in_gap(tc) and not _in_gap(tz):
                seconds = _epoch(tz) - _epoch(tc)
                if seconds < 0:
                    counts["negative"] += 1
                if seconds == 0:
                    counts["zero"] += 1
                if abs(seconds) > EXTREME_CUTOFF:
                    counts["extreme"] += 1

            if tz and tu and not _in_gap(tz) and not _in_gap(tu):
                lag = _epoch(tu) - _epoch(tz)
                if abs(lag) > EXTREME_CUTOFF:
                    counts["post_close_infeasible"] += 1
                elif lag > POST_CLOSE_WINDOW:
                    counts["post_close_late"] += 1

            z = row[i_zip]
            if z and z not in valid_zips:
                counts["invalid_zip"] += 1
            if row[i_key]:
                keys[row[i_key]] += 1

    counts["duplicate_key_values"] = sum(1 for n in keys.values() if n > 1)
    return counts


def test_criterion_1_oracle_equivalence(fixture_10k, fixture_audit_config):
    oracle = oracle_scan(fixture_10k.csv_path, fixture_10k.zip_reference_path)

    cfg = load_config(fixture_audit_config)
    started = time.perf_counter()
    result = run_audit(cfg, write=False)
    elapsed = time.perf_counter() - started

    audited = result.report.counts
    midnight = result.report.sections["temporal"]["midnight"]["count"]

    assert audited.get("negative_duration", 0) == oracle["negative"] == 25
    assert audited.get("zero_duration", 0) == oracle["zero"] == 40
    assert audited.get("sentinel_date", 0) == oracle["sentinel"] == 3
    assert audited.get("extreme_duration", 0) == oracle["extreme"] == 3
    assert midnight == oracle["midnight"] == 120
    assert audited.get("invalid_value", 0) == oracle["invalid_zip"] == 7
    assert audited.get("duplicate_key", 0) == oracle["duplicate_key_values"] == 5
    assert audited.get("dst_gap_invalid", 0) == oracle["dst_gap"] == 2
    assert audited.get("post_close_update", 0) == oracle["post_close_late"] == 11
    assert audited.get("post_close_infeasible", 0) == oracle["post_close_infeasible"] == 0

    assert elapsed < 10.0, f"audit took {elapsed:.2f}s, budget is 10s"
    ok(1, f"9 rule counts equal the row-scan oracle, audit in {elapsed:.2f}s")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_exemplar_unit_checks():
    parser = TimestampParser()
    created = parser("01/27/2023 02:40:00 PM")
    closed = parser("01/14/2022 02:40:00 PM")
    seconds, _ = pair_duration(created, closed)
    assert seconds == -378 * DAY
    assert seconds / DAY == -378.0

    assert decimal_digits("40.86769186022511") == 14

    observed = ["assigned", "closed", "pending", "in progress", "started", "unspecified"]
    profiles = feed(ProfileCollector(), {"status": observed})
    dictionary = DataDictionary([FieldDescriptor(
        "status", "categorical", domain=("assigned", "canceled", "closed", "pending"),
    )])
    drift = check_domains(profiles, dictionary)
    assert set(drift.undeclared["status"]) == {"in progress", "started", "unspecified"}
    assert len(drift.undeclared["status"]) == 3
    assert list(drift.unobserved_declared["status"]) == ["canceled"]
    ok(2, "-378 day duration, 14 decimals, 3 undeclared + 1 unobserved status values")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_spike_detection():
    stats = evaluate_hour_histogram([10] * 23 + [100])
    assert stats.flagged == (23,)
    assert stats.mean == 13.75
    # closed form: variance = (23 * 3.75^2 + 86.25^2) / 24 = 323.4375
    assert stats.sigma == pytest.approx(math.sqrt(323.4375))
    assert stats.threshold == pytest.approx(13.75 + 3 * math.sqrt(323.4375))
    assert abs(stats.threshold - 67.7) < 0.01

    assert evaluate_hour_histogram([10] * 24).flagged == ()
    assert evaluate_hour_histogram([0] * 24).flagged == ()
    ok(3, "flags exactly the 100 bucket at threshold 67.70, flat histograms clean")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_redundancy_verdicts():
    rng = random.Random(20230813)

    values = [rng.choice(["BROOKLYN", "QUEENS", "MANHATTAN", "BRONX", ""]) for _ in range(500)]
    stats = feed(PairCollector([("borough", "park_borough", None)]),
                 {"borough": values, "park_borough": list(values)})[0]
    assert stats.rate_both_present == 1.0
    assert stats.verdict() == "duplicate"

    lat = [f"40.{700000 + i}" for i in range(300)]
    lon = [f"-73.{900000 + i}" for i in range(300)]
    concat = feed(ConcatChecker("location", "latitude", "longitude"), {
        "latitude": lat, "longitude": lon, "location": [f"({a}, {b})" for a, b in zip(lat, lon)],
    })
    assert concat.rows_considered == 300
    assert concat.rate == 1.0

    normalize = StreetNormalizer()
    prefixes = ["", "N ", "S ", "E ", "W ", "EAST ", "WEST "]
    cores = [
        "5", "5TH", "FIFTH", "42", "42ND", "101", "101ST", "THIRD", "1", "2ND",
        "MAIN", "BEDFORD", "OCEAN", "FLATBUSH", "AMSTERDAM", "GRAND", "VICTORY",
        "ST MARKS", "MYRTLE", "QUEENS", "NORTHERN", "ATLANTIC", "FORT WASHINGTON",
    ]
    suffixes = [
        "", "ST", "STREET", "AVE", "AVENUE", "BLVD", "BOULEVARD", "PKWY",
        "PARKWAY", "RD", "ROAD", "PL", "PLACE", "CT", "COURT", "DR", "DRIVE",
        "LN", "LANE", "TER", "TERRACE", "HWY", "HIGHWAY", "EXPY", "EXPRESSWAY",
        "SQ", "SQUARE", "BRG", "BRIDGE",
    ]
    violations = 0
    for _ in range(100_000):
        s = (rng.choice(prefixes) + rng.choice(cores) + " " + rng.choice(suffixes))
        if rng.random() < 0.3:
            s = s.lower()
        if rng.random() < 0.2:
            s = "  " + s.replace(" ", "  ") + " "
        if rng.random() < 0.1:
            s = s + rng.choice([".", ",", " #2", " *"])
        once = normalize(s)
        if normalize(once) != once:
            violations += 1
    assert violations == 0
    ok(4, "byte-copy duplicate, concatenation rate 1.0, 100000-string idempotence fuzz clean")


# --------------------------------------------------------------- criterion 5

REDUCE_CONFIG = """\
input: {input}
out_dir: {out_dir}
fields:
  key: unique_key
pairs:
  - [borough, park_borough]
plan:
  encode: [complaint_type, status]
"""


def _quote(v):
    if '"' in v:
        return '"' + v.replace('"', '""') + '"'
    if "," in v or "\n" in v or "\r" in v:
        return '"' + v + '"'
    return v


def oracle_reduced_bytes(csv_path):
    """Byte size of the reduced main table, computed by an independent rewrite."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        col = {name: i for i, name in enumerate(header)}
        removed = {col["Park Borough"], col["Taxi Company Borough"]}
        i_complaint = col["Complaint Type"]
        i_status = col["Status"]

        complaint_codes = {}
        status_codes = {}

        def code_for(table, value, width):
            if value not in table:
                table[value] = str(len(table)).rjust(width, "0")
            return table[value]

        total = len(",".join(
            h.lower().replace(" ", "_")
            for i, h in enumerate(header) if i not in removed
        )) + 1
        for row in reader:
            cells = []
            for i, v in enumerate(row):
                if i in removed:
                    continue
                if i == i_complaint and v:
                    v = code_for(complaint_codes, v, 2)
                elif i == i_status and v:
                    v = code_for(status_codes, v, 1)
                cells.append(_quote(v))
            total += len(",".join(cells)) + 1
    return total


def test_criterion_5_reduction_losslessness(fixture_10k, tmp_path):
    cfg_path = tmp_path / "reduce.yaml"
    cfg_path.write_text(REDUCE_CONFIG.format(
        input=fixture_10k.csv_path, out_dir=tmp_path / "out",
    ), encoding="utf-8")
    cfg = load_config(cfg_path)

    planned = run_reduce_plan(cfg)
    plan = planned.plan
    assert [(a.kind, a.field) for a in plan.actions] == [
        ("drop", "park_borough"),
        ("segregate", "taxi_company_borough"),
        ("encode", "complaint_type"),
        ("encode", "status"),
    ]
    widths = {a.field: a.details["code_width"] for a in plan.actions_of("encode")}
    assert widths == {"complaint_type": 2, "status": 1}

    applied_run = run_reduce_apply(cfg)
    applied = applied_run.apply_result
    assert applied.rows_written == 10_000

    from odqa.reduce import reconstruct_table
    rebuilt = tmp_path / "rebuilt.csv"
    reconstruct_table(
        applied_run.plan, applied.main_path, rebuilt,
        sidecar_paths=applied.sidecar_paths,
        dictionary_paths=applied.dictionary_paths,
        key_field="unique_key",
    )
    assert filecmp.cmp(fixture_10k.csv_path, rebuilt, shallow=False), \
        "reconstruction is not byte-identical to the source"

    original = os.path.getsize(fixture_10k.csv_path)
    oracle_saved = original - oracle_reduced_bytes(fixture_10k.csv_path)
    assert oracle_saved > 0
    relative_gap = abs(applied.measured_saved - oracle_saved) / oracle_saved
    assert relative_gap < 0.01, (
        f"measured {applied.measured_saved} vs oracle {oracle_saved} "
        f"({100 * relative_gap:.3f}% apart)"
    )
    ok(5, f"4-action plan, byte-identical rebuild, measured within "
          f"{100 * relative_gap:.4f}% of the byte oracle")


# --------------------------------------------------------------- criterion 6

GIB = 1 << 30
MEMORY_CEILING = 512 * 1024 * 1024
RUNTIME_BUDGET = 120.0


@pytest.fixture(scope="session")
def fixture_1g(tmp_path_factory):
    out = tmp_path_factory.mktemp("fx1g")
    return generate_fixture(out, target_bytes=GIB, description_pad=900, seed=4242)


def test_criterion_6_determinism_and_bounded_memory(fixture_1g, tmp_path):
    assert fixture_1g.byte_size >= GIB

    cfg_path = tmp_path / "audit.yaml"
    cfg_path.write_text(AUDIT_CONFIG_TEMPLATE.format(
        input=fixture_1g.csv_path,
        dictionary=fixture_1g.dictionary_path,
        zips=fixture_1g.zip_reference_path,
        out_dir=tmp_path / "unused",
    ) + "profile: {distinct_cap: 50000, sketch_capacity: 1000}\n", encoding="utf-8")

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CEILING, MEMORY_CEILING))

    reports = []
    for run_dir in ("run1", "run2"):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "odqa", "audit",
             "--config", str(cfg_path), "--out", str(tmp_path / run_dir),
             "--format", "json"],
            capture_output=True, text=True, preexec_fn=cap_address_space,
        )
        elapsed = time.perf_counter() - started
        assert proc.returncode in (0, 1), (
            f"audit under a {MEMORY_CEILING >> 20} MB address-space cap failed "
            f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}"
        )
        assert elapsed < RUNTIME_BUDGET, f"run took {elapsed:.1f}s, budget {RUNTIME_BUDGET}s"
        reports.append((tmp_path / run_dir / "report.json").read_bytes())

    assert reports[0] == reports[1], "two runs produced different report.json bytes"
    doc = json.loads(reports[0])
    assert doc["dataset"]["byte_size"] == fixture_1g.byte_size
    ok(6, f"{fixture_1g.byte_size / GIB:.2f} GiB audited twice under 512 MB, "
          f"byte-identical report.json")


# --------------------------------------------------------------- criterion 7

FULL_DATA_ENV = "ODQA_FULL_DATA"

FULL_CONFIG = """\
input: {input}
out_dir: {out_dir}
fields:
  created: created_date
  closed: closed_date
  updated: resolution_action_updated_date
  agency: agency
  key: unique_key
  latitude: latitude
  longitude: longitude
references:
  incident_zip: {zips}
unique:
  - field: unique_key
    required: true
pairs:
  - [borough, park_borough]
  - [cross_street_1, intersection_street_1]
  - [landmark, street_name]
plan:
  encode: [complaint_type, status, agency, borough, descriptor]
"""


def test_criterion_7_full_replication():
    root = os.environ.get(FULL_DATA_ENV)
    if not root:
        pytest.skip(
            f"full-dataset replication: set {FULL_DATA_ENV} to a directory holding "
            "311_service_requests.csv (the 2022-23 export) and usps_zips.txt, "
            "then run this test alone; see README"
        )
    root = Path(root)
    csv_path = root / "311_service_requests.csv"
    zips_path = root / "usps_zips.txt"
    assert csv_path.is_file(), f"{csv_path} not found"
    assert zips_path.is_file(), f"{zips_path} not found"

    out = root / "odqa_replication"
    cfg_path = out / "audit.yaml"
    out.mkdir(exist_ok=True)
    cfg_path.write_text(FULL_CONFIG.format(
        input=csv_path, out_dir=out, zips=zips_path,
    ), encoding="utf-8")
    cfg = load_config(cfg_path)

    result = run_audit(cfg)
    counts = result.report.counts
    assert counts.get("invalid_value", 0) == 4374         # same snapshot: exact
    assert counts.get("negative_duration", 0) == pytest.approx(12_450, rel=0.01)
    assert counts.get("zero_duration", 0) == pytest.approx(163_720, rel=0.01)

    rates = {
        (p.field_a, p.field_b): p.rate_both_present
        for p in result.pair_stats
    }
    assert rates[("borough", "park_borough")] == 1.0
    assert rates[("cross_street_1", "intersection_street_1")] == pytest.approx(0.88, abs=0.01)
    assert rates[("landmark", "street_name")] == pytest.approx(0.62, abs=0.01)

    planned = run_reduce_plan(cfg)
    assert planned.plan.estimated_pct >= 35.0
    ok(7, "full-dataset counts, match rates, and >= 35% reduction reproduced")
