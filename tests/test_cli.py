"""CLI behavior: exit codes, output selection, subcommand wiring."""

import json
import textwrap

import pytest

from odqa.cli import main


SMALL_CSV = """\
Unique Key,Created Date,Closed Date,Agency,Status
K1,01/05/2023 10:00:00 AM,01/05/2023 09:00:00 AM,NYPD,Closed
K2,01/05/2023 10:00:00 AM,01/05/2023 10:00:00 AM,DOT,Closed
K3,01/06/2023 12:00:00 PM,,DOT,Open
K4,01/07/2023 08:30:00 AM,01/08/2023 08:30:00 AM,DOT,Closed
"""


def clean_csv(rows=30):
    """Enough parsed timestamps to clear the spike-sample floor, no anomalies."""
    lines = ["Unique Key,Created Date,Closed Date,Agency"]
    for i in range(rows):
        created = f"01/{5 + i % 20:02d}/2023 09:{7 + i % 50:02d}:13 AM"
        closed = f"01/{6 + i % 20:02d}/2023 10:{11 + i % 40:02d}:41 AM"
        lines.append(f"K{i},{created},{closed},{'NYPD' if i % 2 else 'DOT'}")
    return "\n".join(lines) + "\n"


@pytest.fixture()
def small_setup(tmp_path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(SMALL_CSV, encoding="utf-8")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(textwrap.dedent(f"""\
        input: data.csv
        out_dir: out
        fields: {{created: created_date, closed: closed_date, agency: agency, key: unique_key}}
        unique: [unique_key]
    """), encoding="utf-8")
    return tmp_path, cfg


def test_missing_config_file_is_exit_2(tmp_path, capsys):
    code = main(["audit", "--config", str(tmp_path / "none.yaml")])
    assert code == 2
    assert "odqa: error:" in capsys.readouterr().err


def test_bad_config_key_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("inputt: x.csv\n", encoding="utf-8")
    assert main(["audit", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_missing_input_file_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("input: ghost.csv\n", encoding="utf-8")
    assert main(["audit", "--config", str(cfg)]) == 2
    assert "not found" in capsys.readouterr().err


def test_audit_writes_outputs_and_reports_findings(small_setup, capsys):
    tmp_path, cfg = small_setup
    code = main(["audit", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 1                                   # negative duration present
    assert "audit:" in out and "exit status 1" in out
    for name in ("report.json", "report.md", "profiles.csv"):
        assert (tmp_path / "out" / name).is_file()
        assert f"wrote {tmp_path / 'out' / name}" in out
    doc = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert doc["command"] == "audit"
    assert doc["finding_counts"]["negative_duration"] == 1
    assert doc["finding_counts"]["zero_duration"] == 1


def test_clean_data_exits_zero(tmp_path, capsys):
    (tmp_path / "data.csv").write_text(clean_csv(), encoding="utf-8")
    cfg = tmp_path / "c.yaml"
    cfg.write_text(textwrap.dedent("""\
        input: data.csv
        out_dir: out
        fields: {created: created_date, closed: closed_date, agency: agency, key: unique_key}
    """), encoding="utf-8")
    assert main(["audit", "--config", str(cfg)]) == 0
    assert "exit status 0" in capsys.readouterr().out


def test_severity_threshold_flag_overrides(small_setup, capsys):
    tmp_path, cfg = small_setup
    # negative_duration is error severity, so even at error threshold: still 1
    assert main(["audit", "--config", str(cfg), "--severity-threshold", "error"]) == 1
    capsys.readouterr()
    # zero_duration alone is warning; filter the errors out of the data
    trimmed = tmp_path / "trim.csv"
    trimmed.write_text(
        "Unique Key,Created Date,Closed Date,Agency\n"
        "K2,01/05/2023 10:15:00 AM,01/05/2023 10:15:00 AM,DOT\n",
        encoding="utf-8",
    )
    cfg2 = tmp_path / "c2.yaml"
    cfg2.write_text(textwrap.dedent(f"""\
        input: trim.csv
        out_dir: out2
        fields: {{created: created_date, closed: closed_date, agency: agency, key: unique_key}}
    """), encoding="utf-8")
    assert main(["audit", "--config", str(cfg2)]) == 1
    capsys.readouterr()
    assert main(["audit", "--config", str(cfg2), "--severity-threshold", "error"]) == 0


def test_format_flag_selects_outputs(small_setup, capsys):
    tmp_path, cfg = small_setup
    main(["audit", "--config", str(cfg), "--format", "json", "--out", str(tmp_path / "only")])
    capsys.readouterr()
    assert (tmp_path / "only" / "report.json").is_file()
    assert not (tmp_path / "only" / "report.md").exists()
    assert not (tmp_path / "only" / "profiles.csv").exists()


def test_bad_format_flag_is_exit_2(small_setup, capsys):
    _, cfg = small_setup
    assert main(["audit", "--config", str(cfg), "--format", "xml"]) == 2
    assert "unknown format" in capsys.readouterr().err


def test_out_flag_overrides_config(small_setup, capsys):
    tmp_path, cfg = small_setup
    main(["profile", "--config", str(cfg), "--out", str(tmp_path / "elsewhere")])
    capsys.readouterr()
    assert (tmp_path / "elsewhere" / "report.json").is_file()
    assert not (tmp_path / "out").exists()


def test_profile_subcommand_reports_tiers(small_setup, capsys):
    tmp_path, cfg = small_setup
    code = main(["profile", "--config", str(cfg)])
    capsys.readouterr()
    assert code == 0                                   # profiling alone finds nothing here
    doc = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert doc["command"] == "profile"
    assert "tiers" in doc["sections"]
    assert "temporal" not in doc["sections"]


def test_dict_check_requires_dictionary(small_setup, capsys):
    _, cfg = small_setup
    assert main(["dict-check", "--config", str(cfg)]) == 2
    assert "dictionary" in capsys.readouterr().err


def test_reduce_apply_without_plan_is_exit_2(small_setup, capsys):
    _, cfg = small_setup
    assert main(["reduce-apply", "--config", str(cfg)]) == 2
    assert "run reduce-plan first" in capsys.readouterr().err


def test_reduce_plan_then_apply_round_trip(tmp_path, capsys):
    rows = ["Unique Key,Borough,Park Borough,Note"]
    for i in range(50):
        b = ["BRONX", "QUEENS"][i % 2]
        rows.append(f"K{i},{b},{b},note text {i % 3}")
    (tmp_path / "data.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    cfg = tmp_path / "c.yaml"
    cfg.write_text(textwrap.dedent("""\
        input: data.csv
        out_dir: out
        fields: {key: unique_key}
        pairs:
          - [borough, park_borough]
        plan: {encode: [note]}
    """), encoding="utf-8")

    code = main(["reduce-plan", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code in (0, 1)
    plan_path = tmp_path / "out" / "plan.json"
    assert plan_path.is_file()
    assert f"wrote {plan_path}" in out
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    assert [(a["kind"], a["field"]) for a in plan["actions"]] == [
        ("drop", "park_borough"), ("encode", "note"),
    ]

    code = main(["reduce-apply", "--config", str(cfg)])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "out" / "reduced.csv").is_file()
    assert (tmp_path / "out" / "apply_result.json").is_file()
    applied = json.loads((tmp_path / "out" / "apply_result.json").read_text(encoding="utf-8"))
    assert applied["rows_written"] == 50
    assert applied["measured_saved"] > 0
    dataset = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))["dataset"]
    assert dataset["row_count"] == dataset["delivered_rows"] == applied["rows_written"]
    header = (tmp_path / "out" / "reduced.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "unique_key,borough,note"


def test_reduce_apply_refusing_a_malformed_record_is_exit_2(tmp_path, capsys):
    (tmp_path / "data.csv").write_text('k,s,v\nK1,,a\nK2,"x"y,b\nK3,,c\n', encoding="utf-8")
    cfg = tmp_path / "c.yaml"
    cfg.write_text("input: data.csv\nout_dir: out\nfields: {key: k}\nplan: {segregate: [s]}\n", encoding="utf-8")
    assert main(["reduce-plan", "--config", str(cfg)]) in (0, 1)
    planned = sorted(p.name for p in (tmp_path / "out").iterdir())
    capsys.readouterr()

    assert main(["reduce-apply", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == "odqa: error: row 2: ',' expected after '\"'; audit and repair before reducing\n"
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == planned


def test_reduce_apply_refusing_invalid_utf8_is_exit_2(tmp_path, capsys):
    (tmp_path / "data.csv").write_bytes(b"k,s,v\nK1,,a\nK2,\xff,b\nK3,,c\n")
    cfg = tmp_path / "c.yaml"
    cfg.write_text("input: data.csv\nout_dir: out\nfields: {key: k}\nplan: {segregate: [s]}\n", encoding="utf-8")
    assert main(["reduce-plan", "--config", str(cfg)]) in (0, 1)
    planned = sorted(p.name for p in (tmp_path / "out").iterdir())
    capsys.readouterr()

    assert main(["reduce-apply", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "odqa: error: row 2: invalid UTF-8 at byte 15 (invalid start byte); audit and repair before reducing\n"
    )
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == planned


def test_absent_agency_column_is_a_finding_not_an_error(tmp_path, capsys):
    (tmp_path / "data.csv").write_text("k,v\nK1,a\nK2,b\n", encoding="utf-8")
    cfg = tmp_path / "c.yaml"
    cfg.write_text("input: data.csv\nout_dir: out\nfields: {agency: agency}\n", encoding="utf-8")
    assert main(["profile", "--config", str(cfg)]) != 2
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["finding_counts"]["agency_field_missing"] == 1
    assert report["samples"]["agency_field_missing"][0]["fields"] == ["agency"]


# (knob, command, config naming the absent column `nope`) for every knob that names a column
ABSENT_COLUMN_CASES = [
    ("fields.created", "audit", "fields: {created: nope, closed: closed}"),
    ("fields.closed", "audit", "fields: {created: created, closed: nope}"),
    ("fields.updated", "audit", "fields: {created: created, closed: closed, updated: nope}"),
    ("fields.key", "profile", "fields: {key: nope}"),
    ("fields.latitude", "audit", "fields: {latitude: nope, longitude: lon}"),
    ("fields.longitude", "audit", "fields: {latitude: lat, longitude: nope}"),
    ("references", "audit", "references: {nope: zips.txt}"),
    ("unique", "audit", "unique: [nope]"),
    ("precision.fields", "audit", "precision: {fields: [lat, nope]}"),
    ("pairs", "audit", "pairs: [[a, nope]]"),
    ("concat", "audit", "concat: [{target: nope, a: lat, b: lon}]"),
    ("fd", "audit", "fd: [[nope, a]]"),
    ("concentration", "audit", "concentration: {a: 2, nope: 5}"),
    ("concentration", "profile", "concentration: {nope: 5}"),
    ("plan.encode", "reduce-plan", "plan: {encode: [a, nope]}"),
    ("plan.drop", "reduce-plan", "plan: {drop: [nope]}"),
    ("plan.segregate", "reduce-plan", "plan: {segregate: [nope]}"),
    ("plan.protected", "reduce-plan", "plan: {protected: [nope]}"),
    ("plan.allow_lossy", "reduce-plan", "plan: {allow_lossy: [nope]}"),
]


@pytest.mark.parametrize(
    "knob, command, config", ABSENT_COLUMN_CASES, ids=[f"{k}-{c}" for k, c, _ in ABSENT_COLUMN_CASES],
)
def test_configured_column_absent_is_exit_2(tmp_path, capsys, monkeypatch, knob, command, config):
    def no_stream(*args, **kwargs):
        raise AssertionError("the input was read before the config was checked")

    monkeypatch.setattr("odqa.pipeline.stream_rows", no_stream)
    (tmp_path / "data.csv").write_text(
        "k,created,closed,lat,lon,a,b\n"
        "K1,2023-01-05 10:00:00,2023-01-06 10:00:00,40.7,-73.9,x,x\n",
        encoding="utf-8",
    )
    (tmp_path / "zips.txt").write_text("10001\n", encoding="utf-8")
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"input: data.csv\nout_dir: out\n{config}\n", encoding="utf-8")
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"odqa: error: configured column(s) not in the header: 'nope' (from {knob})\n"
    assert not (tmp_path / "out").exists()


def test_empty_input_is_exit_2(tmp_path, capsys):
    (tmp_path / "empty.csv").write_bytes(b"")
    cfg = tmp_path / "c.yaml"
    cfg.write_text("input: empty.csv\nout_dir: out\n", encoding="utf-8")
    assert main(["profile", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("odqa: error:") and "no header row" in err


def test_blank_first_line_is_exit_2(tmp_path, capsys):
    (tmp_path / "blank.csv").write_bytes(b"\na,b\n1,2\n")
    cfg = tmp_path / "c.yaml"
    cfg.write_text("input: blank.csv\nout_dir: out\n", encoding="utf-8")
    assert main(["profile", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"odqa: error: {tmp_path / 'blank.csv'}: no header row (the first line is blank)\n"
    assert not (tmp_path / "out").exists()
