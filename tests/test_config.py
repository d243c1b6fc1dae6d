"""Config loading: strictness, path resolution, digest stability."""

import textwrap
from pathlib import Path

import pytest

from odqa.config import load_config, parse_formats
from odqa.errors import ConfigError
from odqa.findings import Severity


def write(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text), encoding="utf-8")
    return p


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(write(tmp_path, "input: data.csv\n"))
    assert cfg.input_path == tmp_path / "data.csv"
    assert cfg.dictionary_path is None
    assert cfg.out_dir == Path("odqa_out")
    assert cfg.severity_threshold is Severity.WARNING
    assert cfg.formats == ("json", "markdown", "csv")
    assert cfg.plan.sparse_threshold == 99.0
    assert cfg.geo_bounds is None


def test_paths_resolve_relative_to_config_file(tmp_path):
    sub = tmp_path / "conf"
    sub.mkdir()
    cfg = load_config(write(sub, """\
        input: ../data.csv
        dictionary: dict.csv
        out_dir: /abs/out
        references:
          incident_zip: refs/zips.txt
    """))
    assert cfg.input_path == sub / ".." / "data.csv"
    assert cfg.dictionary_path == sub / "dict.csv"
    assert cfg.out_dir == Path("/abs/out")
    assert cfg.references["incident_zip"] == sub / "refs" / "zips.txt"


@pytest.mark.parametrize("text,fragment", [
    ("inputt: x.csv\n", "inputt"),
    ("fields: {createdd: a}\n", "unknown key"),
    ("zone: {name: us_eastern, tz: x}\n", "unknown key"),
    ("geo: {bounds: {lat_min: 1, latmax: 2}}\n", "unknown key"),
    ("plan: {sparse: 1}\n", "unknown key"),
    ("report: {format: [json]}\n", "unknown key"),
    ("profile: {cap: 3}\n", "unknown key"),
    ("temporal: {window: 3}\n", "unknown key"),
])
def test_unknown_keys_are_fatal(tmp_path, text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        load_config(write(tmp_path, text))


@pytest.mark.parametrize("text,fragment", [
    ("input: [a, b]\n", "path string"),
    ("timestamp_formats: []\n", "at least one"),
    ("missing_tokens: {foo: not_a_kind}\n", "unknown missing kind"),
    ("zone: {name: mars}\n", "unknown zone"),
    ("zone: {name: fixed}\n", "bad fixed spec"),
    ("zone: {name: table, transitions: [[a, b]]}\n", "bad table spec"),
    ("profile: {distinct_cap: 0}\n", "must be positive"),
    ("concentration: {f: 0}\n", "k must be >= 1"),
    ("unique: [{required: true}]\n", "missing field"),
    ("unique: [3]\n", "entries must be"),
    ("pairs: [[a]]\n", "entries must be"),
    ("pairs: [{a: x, b: y, normalizer: upper}]\n", "unknown normalizer"),
    ("concat: [{target: t, a: x}]\n", "missing b"),
    ("fd: [[a, b, c]]\n", "determinant"),
    ("redundancy: {near_duplicate_threshold: 0.0}\n", "must be in"),
    ("redundancy: {near_duplicate_threshold: 1.5}\n", "must be in"),
    ("plan: {sparse_threshold: 0}\n", "must be in"),
    ("plan: {sparse_threshold: 101}\n", "must be in"),
    ("severity_threshold: severe\n", "unknown severity"),
    ("severity_overrides: {not_a_rule: info}\n", "unknown rule"),
    ("severity_overrides: {ragged_row: loud}\n", "unknown severity"),
    ("sample_cap: 0\n", "must be >= 1"),
    ("report: {formats: [json, yaml]}\n", "unknown format"),
    ("precision: {fields: [latitude, longitude, latitude]}\n", "'latitude' is listed twice"),
])
def test_invalid_values_are_fatal(tmp_path, text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        load_config(write(tmp_path, text))


@pytest.mark.parametrize("fields,message", [
    ("{created: creatd}", "fields.created is given without fields.closed"),
    ("{closed: closed}", "fields.closed is given without fields.created"),
    ("{updated: updated}", "fields.updated is given without fields.created and fields.closed"),
    ("{created: c, updated: u}", "fields.created is given without fields.closed"),
    ("{latitude: lat}", "fields.latitude is given without fields.longitude"),
    ("{longitude: lon, created: c, closed: z}", "fields.longitude is given without fields.latitude"),
])
def test_half_of_a_field_pair_names_its_partner(tmp_path, fields, message):
    # a role read only with its partner would otherwise be skipped silently
    with pytest.raises(ConfigError, match=f"^{message}$"):
        load_config(write(tmp_path, f"fields: {fields}\n"))


def test_whole_field_pairs_load(tmp_path):
    cfg = load_config(write(tmp_path, "fields: {created: c, closed: z, updated: u, latitude: y, longitude: x}\n"))
    fm = cfg.field_map
    assert (fm.created, fm.closed, fm.updated, fm.latitude, fm.longitude) == ("c", "z", "u", "y", "x")


def test_not_yaml_and_not_mapping(tmp_path):
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(write(tmp_path, "input: [unclosed\n"))
    with pytest.raises(ConfigError, match="expected a mapping"):
        load_config(write(tmp_path, "- just\n- a list\n"))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.yaml")


def test_empty_file_is_all_defaults(tmp_path):
    cfg = load_config(write(tmp_path, ""))
    assert cfg.input_path is None


def test_field_map_and_specs_parse(tmp_path):
    cfg = load_config(write(tmp_path, """\
        input: d.csv
        fields: {created: created_date, closed: closed_date, key: unique_key, agency: agency}
        unique:
          - unique_key
          - {field: other, required: true}
        pairs:
          - [a, b]
          - {a: c, b: d, normalizer: street}
        concat:
          - {target: t, a: x, b: y, template: "{a}|{b}"}
        fd:
          - [agency, agency_name]
        concentration: {complaint_type: 5}
        severity_overrides: {zero_duration: error}
    """))
    assert cfg.field_map.created == "created_date"
    assert cfg.field_map.updated is None
    assert [(u.field, u.required) for u in cfg.unique] == [("unique_key", False), ("other", True)]
    assert [(p.field_a, p.field_b, p.normalizer) for p in cfg.pairs] == [
        ("a", "b", None), ("c", "d", "street"),
    ]
    assert cfg.concat[0].template == "{a}|{b}"
    assert cfg.fd == (("agency", "agency_name"),)
    assert cfg.concentration == {"complaint_type": 5}
    assert cfg.severity_overrides == {"zero_duration": Severity.ERROR}


def test_geo_bounds_default_when_coordinates_mapped(tmp_path):
    cfg = load_config(write(tmp_path, """\
        input: d.csv
        fields: {latitude: latitude, longitude: longitude}
    """))
    assert cfg.geo_bounds is not None
    assert cfg.geo_bounds.lat_min == 40.49
    override = load_config(write(tmp_path, """\
        input: d.csv
        fields: {latitude: latitude, longitude: longitude}
        geo: {bounds: {lat_min: 40.0}}
    """, name="cfg2.yaml"))
    assert override.geo_bounds.lat_min == 40.0
    assert override.geo_bounds.lon_max == -73.68


def test_plan_segregate_auto_vs_explicit(tmp_path):
    auto = load_config(write(tmp_path, "plan: {segregate: auto}\n"))
    assert auto.plan.segregate_fields is None
    explicit = load_config(write(tmp_path, "plan: {segregate: [a, b]}\n", name="e.yaml"))
    assert explicit.plan.segregate_fields == ("a", "b")
    none = load_config(write(tmp_path, "plan: {segregate: }\n", name="n.yaml"))
    assert none.plan.segregate_fields is None


def test_zone_specs_build_rules(tmp_path):
    fixed = load_config(write(tmp_path, "zone: {name: fixed, offset_seconds: -18000}\n"))
    assert fixed.zone_rules().offset_at(10 ** 9) == -18000
    table = load_config(write(tmp_path, """\
        zone:
          name: table
          initial_offset: -18000
          transitions: [[1000, -14400]]
    """, name="t.yaml"))
    rules = table.zone_rules()
    assert rules.offset_at(999) == -18000
    assert rules.offset_at(1000) == -14400


def test_digest_tracks_behavior_not_presentation(tmp_path):
    base = "input: d.csv\nfields: {created: c, closed: d}\n"
    a = load_config(write(tmp_path, base, name="a.yaml"))
    b = load_config(write(tmp_path, base, name="b.yaml"))
    assert a.digest() == b.digest()          # source path does not matter

    c = load_config(write(tmp_path, base + "out_dir: elsewhere\n", name="c.yaml"))
    assert c.digest() == a.digest()          # output location does not matter
    d = load_config(write(tmp_path, base + "report: {formats: [json]}\n", name="d.yaml"))
    assert d.digest() == a.digest()          # rendering selection does not matter

    e = load_config(write(tmp_path, base + "sample_cap: 7\n", name="e.yaml"))
    assert e.digest() != a.digest()
    f = load_config(write(tmp_path, base + "severity_threshold: error\n", name="f.yaml"))
    assert f.digest() != a.digest()


def test_digest_is_stable_text():
    from odqa.config import AuditConfig
    d = AuditConfig().digest()
    assert len(d) == 64 and set(d) <= set("0123456789abcdef")
    assert AuditConfig().digest() == d


def test_parse_formats():
    assert parse_formats("json") == ("json",)
    assert parse_formats("json, csv") == ("json", "csv")
    with pytest.raises(ConfigError, match="unknown format"):
        parse_formats("json,xml")
    with pytest.raises(ConfigError, match="empty"):
        parse_formats(" , ")


EVERY_KNOB = """\
input: /data/in.csv
dictionary: /data/dict.csv
out_dir: /data/out
fields:
  created: created_date
  closed: closed_date
  updated: updated_date
  agency: agency
  key: unique_key
  latitude: latitude
  longitude: longitude
missing_tokens: {"-": empty, unknown: null_literal}
timestamp_formats: ["%Y-%m-%d %H:%M:%S", "%m/%d/%Y"]
zone: {name: table, initial_offset: -18000, transitions: [[1000, -14400], [2000, -18000]]}
temporal:
  sentinel_dates: ["1900-01-01", "1970-01-01"]
  extreme_cutoff_days: 365
  post_close_window_days: 7
  sigma_multiplier: 2.5
profile: {distinct_cap: 500, sketch_capacity: 400, top_k: 9}
concentration: {complaint_type: 5, agency: 2}
references: {incident_zip: /data/zips.txt, borough: /data/boroughs.txt}
geo: {bounds: {lat_min: 40.0, lat_max: 41.0, lon_min: -75.0, lon_max: -73.0}}
precision: {fields: [latitude, longitude], max_decimals: 5}
unique:
  - unique_key
  - {field: other_key, required: true}
pairs:
  - [borough, park_borough]
  - {a: cross_street_1, b: intersection_street_1, normalizer: street}
concat:
  - {target: location, a: latitude, b: longitude, template: "[{a} {b}]"}
fd:
  - [agency, agency_name]
redundancy: {near_duplicate_threshold: 0.9}
plan:
  sparse_threshold: 95.5
  encode_cap: 300
  encode: [status]
  drop: [location]
  segregate: [taxi_company_borough]
  allow_lossy: [park_borough]
  auto_drop_duplicates: false
  drop_concat_targets: false
  protected: [unique_key]
severity_threshold: error
severity_overrides: {hour_spike: info, invalid_value: error}
sample_cap: 7
report: {formats: [json]}
case_fold_domains: true
"""


@pytest.mark.parametrize("text,digest", [
    ("input: /data/in.csv\n", "95f92e1f76749728bab06dccb386a8d348f471d3da19139f3f1090b8caae834e"),
    (EVERY_KNOB, "e6ddd51cceb84c0439186c037b1f2c42bf31dfd4937ed8b552dd43b9a6d6674b"),
])
def test_digest_is_pinned(tmp_path, text, digest):
    # a minimal and an every-knob config; the canonical form must not move either digest
    assert load_config(write(tmp_path, text)).digest() == digest
