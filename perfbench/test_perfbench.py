"""Tests of the benchmark itself: the oracle, the operation count, the guard.

    python3 -m pytest perfbench
"""

import json
import sys

import pytest

import child
import oracle
import run
import workloads

sys.path.insert(0, str(workloads.SRC))

from odqa.config import load_config  # noqa: E402

HEADER = "Unique Key,Created Date,Closed Date,Resolution Action Updated Date,Incident Zip\n"

# one row per anomaly, between plain rows; the comment names what each adds
ROWS = """\
1,05/01/2022 10:15:30 AM,05/03/2022 11:20:40 AM,05/03/2022 11:20:40 AM,10001
2,05/10/2022 10:15:30 AM,05/01/2022 09:00:01 AM,05/01/2022 09:00:01 AM,10002
3,06/01/2022 01:02:03 PM,06/01/2022 01:02:03 PM,06/01/2022 01:02:03 PM,10003
4,01/01/1900 03:47:12 AM,06/05/2022 04:05:06 PM,06/05/2022 04:05:06 PM,10001
5,01/02/2019 08:09:10 AM,06/05/2022 04:05:06 PM,06/05/2022 04:05:06 PM,10001
6,07/01/2022 12:00:00 AM,07/02/2022 03:04:05 PM,07/02/2022 03:04:05 PM,10002
7,03/13/2022 02:17:23 AM,03/20/2022 05:06:07 PM,03/20/2022 05:06:07 PM,10003
8,05/04/2022 10:15:30 AM,05/05/2022 11:20:40 AM,05/05/2022 11:20:40 AM,99999
1,05/01/2022 10:15:30 AM,05/03/2022 11:20:40 AM,05/03/2022 11:20:40 AM,10001
10,05/01/2022 10:00:01 AM,05/02/2022 10:00:01 AM,07/15/2022 10:00:01 AM,10001
11,05/01/2022 10:00:01 AM,05/02/2022 10:00:01 AM,06/01/2025 10:00:01 AM,10002
12,not a date,05/02/2022 10:00:01 AM,05/02/2022 10:00:01 AM,10003
13,05/06/2022 10:15:30 AM,,05/06/2022 10:15:30 AM,NA
14,05/07/2022 10:15:31 AM,05/08/2022 11:20:41 AM,05/08/2022 11:20:41 AM,
15,05/08/2022 10:15:32 AM,05/09/2022 11:20:42 AM,05/09/2022 11:20:42 AM,10001
16,05/09/2022 10:15:33 AM,05/10/2022 11:20:43 AM,05/10/2022 11:20:43 AM,10002
17,05/10/2022 10:15:34 AM,05/11/2022 11:20:44 AM,05/11/2022 11:20:44 AM,10003
18,05/11/2022 10:15:35 AM,05/12/2022 11:20:45 AM,05/12/2022 11:20:45 AM,10001
19,05/12/2022 10:15:36 AM,05/13/2022 11:20:46 AM,05/13/2022 11:20:46 AM,10002
20,05/13/2022 10:15:37 AM,05/14/2022 11:20:47 AM,05/14/2022 11:20:47 AM,10003
"""

EXPECTED = {
    "negative": 1,              # row 2
    "zero": 1,                  # row 3
    "sentinel": 1,              # row 4
    "extreme": 2,               # rows 4 (sentinel) and 5
    "midnight": 1,              # row 6
    "dst_gap": 1,               # row 7
    "invalid_zip": 1,           # row 8
    "duplicate_keys": 1,        # key 1 twice
    "post_close": 1,            # row 10, updated 74 days after close
    "post_close_infeasible": 1,  # row 11, beyond the 730-day cutoff
    "unparseable": 1,           # row 12
}

CONFIG = """\
input: {input}
out_dir: {out_dir}
fields:
  created: created_date
  closed: closed_date
  updated: resolution_action_updated_date
  key: unique_key
references:
  incident_zip: {zips}
unique:
  - field: unique_key
    required: true
"""


@pytest.fixture()
def hand_built(tmp_path):
    csv_path = tmp_path / "requests.csv"
    csv_path.write_text(HEADER + ROWS, encoding="utf-8")
    zips = tmp_path / "zips.ref"
    zips.write_text("# valid\n10001\n10002\n10003\n", encoding="utf-8")
    config = tmp_path / "audit.yaml"
    config.write_text(CONFIG.format(input=csv_path, out_dir=tmp_path / "out", zips=zips),
                      encoding="utf-8")
    return csv_path, zips, config


def test_oracle_counts_one_of_each_anomaly(hand_built):
    csv_path, zips, _ = hand_built
    got = oracle.audit_counts(csv_path, zips, cutoff_days=730, window_days=30)
    assert got["rows"] == 20
    assert {name: got["counts"][name] for name in EXPECTED} == EXPECTED
    assert sum(got["columns"]["incident_zip"].values()) == 18
    assert len(got["columns"]["incident_zip"]) == 4
    assert len(got["columns"]["unique_key"]) == 19


def test_oracle_agrees_with_odqa_and_catches_a_wrong_count(hand_built):
    from odqa.pipeline import run_audit

    csv_path, zips, config = hand_built
    report = json.loads(run_audit(load_config(config), write=False).report.to_json())
    expected = oracle.audit_counts(csv_path, zips, cutoff_days=730, window_days=30)
    limits = {"distinct_cap": 1_000_000, "sketch_capacity": 10_000}
    assert oracle.audit_problems(report, expected, **limits) == []

    report["finding_counts"]["zero_duration"] += 1
    assert oracle.audit_problems(report, expected, **limits) == ["zero_duration: 2 != 1"]


def test_sketch_counts_outside_the_space_saving_bound_are_caught():
    expected = {"sha256": "x", "rows": 4, "counts": {n: 0 for n in oracle.RULE_COUNTS.values()}
                | {"midnight": 0}, "columns": {"k": {"a": 2, "b": 1, "c": 1}}}
    report = {
        "dataset": {"sha256": "x", "row_count": 4},
        "finding_counts": {},
        "sections": {"temporal": {"midnight": {"count": 0}}, "profiles": [
            {"field": "k", "present": 4, "distinct": 2, "approximate": True,
             "top_values": [["a", 2], ["b", 3]]},
        ]},
    }
    limits = {"distinct_cap": 2, "sketch_capacity": 2}
    # slack is present / capacity = 2: b may read 1..3
    assert oracle.audit_problems(report, expected, **limits) == []
    report["sections"]["profiles"][0]["top_values"] = [["a", 1]]
    assert oracle.audit_problems(report, expected, **limits) == ["k: sketch count 1 for 'a', true 2"]


def test_reduced_bytes_rewrites_independently(tmp_path):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text('Key,Kind,Note\n1,alpha,"x, y"\n2,beta,z\n3,alpha,\n', encoding="utf-8")
    # key,kind / 1,0 / 2,1 / 3,0
    assert oracle.reduced_bytes(csv_path, removed={"note"}, encoded={"kind"}) == 9 + 4 + 4 + 4


def test_audit_exit_status_one_is_a_success(hand_built):
    _, _, config = hand_built
    cfg = load_config(config)
    done, errors = child.run_round(child.round_ops("audit", cfg, config.parent / "rebuilt.csv"))
    assert errors == []
    assert done[0].exit_status == 1


def test_raised_config_error_is_one_failed_operation(hand_built):
    _, _, config = hand_built
    config.write_text(config.read_text(encoding="utf-8").replace("requests.csv", "absent.csv"),
                      encoding="utf-8")
    cfg = load_config(config)
    runner = child.Runner("audit", cfg, config.parent / "rebuilt.csv")
    runner.rounds(0)
    assert (runner.attempted, runner.failed) == (2, 2)
    assert [e.split(":")[0] for e in runner.errors] == ["ConfigError"]


def test_input_guard_refuses_a_changed_input(tmp_path):
    w = workloads.WORKLOADS["audit-exact"]
    digests = workloads.recorded_digests()
    for name in workloads.WORKLOADS:
        assert sum(1 for key in digests if key[0] == name) == workloads.SEED_POOL
    changed = tmp_path / "requests.csv"
    changed.write_text("Unique Key\n1\n", encoding="utf-8")
    with pytest.raises(workloads.InputChanged):
        workloads.check_digest(w, 0, changed)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER

