"""Dictionary loading, drift detection, and type conformance."""

import textwrap

import pytest
from hypothesis import given
from hypothesis import strategies as st

from odqa.dictionary import (
    DataDictionary,
    FieldDescriptor,
    TypeChecker,
    check_domains,
    detect_undocumented,
    drift_findings,
    is_experimental,
    load_dictionary,
    save_dictionary,
)
from odqa.errors import DictionaryLoadError
from odqa.ingest import open_table, stream_rows

from conftest import feed


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text), encoding="utf-8")
    return p


class FakeProfile:
    def __init__(self, field, counts, approximate=False):
        self.field = field
        self.exact_counts = dict(counts)
        self.approximate = approximate


# ------------------------------------------------------------------ loading

def test_load_basic_dictionary(tmp_path):
    p = write(tmp_path, "dict.csv", """\
        name,type_class,domain,required,documented,domain_ref,notes
        Unique Key,integer,,yes,yes,,portal row id
        Status,categorical,Open|Closed|Pending,no,yes,,
        Incident Zip,text,,no,no,zips.ref,
        """)
    d = load_dictionary(p)
    assert [f.name for f in d.fields] == ["unique_key", "status", "incident_zip"]
    assert d.by_name["unique_key"].required is True
    assert d.by_name["status"].domain == ("Open", "Closed", "Pending")
    assert d.by_name["incident_zip"].documented is False
    assert d.by_name["incident_zip"].domain_ref == "zips.ref"
    assert "status" in d and d.get("nope") is None


def test_load_matches_columns_by_name_not_position(tmp_path):
    p = write(tmp_path, "dict.csv", """\
        notes,type_class,name,extra_column
        anything,text,Complaint Type,ignored
        """)
    d = load_dictionary(p)
    assert d.fields[0].name == "complaint_type"
    assert d.fields[0].notes == "anything"


def test_load_strips_bom_and_pads(tmp_path):
    p = tmp_path / "dict.csv"
    p.write_bytes(b"\xef\xbb\xbfname,type_class\n Status , CATEGORICAL \n")
    d = load_dictionary(p)
    assert d.fields[0].name == "status"
    assert d.fields[0].type_class == "categorical"


def test_domain_split_ignores_empty_segments(tmp_path):
    p = write(tmp_path, "dict.csv", """\
        name,type_class,domain
        borough,categorical, BRONX | QUEENS ||
        """)
    d = load_dictionary(p)
    assert d.fields[0].domain == ("BRONX", "QUEENS")


@pytest.mark.parametrize("body,fragment", [
    ("type_class\ninteger\n", "name and type_class"),
    ("name,type_class\n,text\n", "blank field name"),
    ("name,type_class\na,text\nA,text\n", "duplicate"),
    ("name,type_class\na,varchar\n", "type_class"),
    ("name,type_class,domain,domain_ref\na,text,X|Y,ref.txt\n", "mutually exclusive"),
    ("name,type_class,required\na,text,maybe\n", "yes/no"),
])
def test_load_errors_name_the_offence(tmp_path, body, fragment):
    p = tmp_path / "dict.csv"
    p.write_text(body, encoding="utf-8")
    with pytest.raises(DictionaryLoadError) as exc:
        load_dictionary(p)
    assert fragment in str(exc.value)


def test_load_missing_file(tmp_path):
    with pytest.raises(DictionaryLoadError):
        load_dictionary(tmp_path / "absent.csv")


def test_descriptor_validation_direct():
    with pytest.raises(DictionaryLoadError):
        FieldDescriptor(name="x", type_class="float")
    with pytest.raises(DictionaryLoadError):
        FieldDescriptor(name="x", type_class="text", domain=("a",), domain_ref="r")


def test_save_load_roundtrip(tmp_path):
    d = DataDictionary([
        FieldDescriptor(name="unique_key", type_class="integer", required=True),
        FieldDescriptor(name="status", type_class="categorical",
                        domain=("Open", "Closed"), notes="lifecycle"),
        FieldDescriptor(name="incident_zip", type_class="text",
                        domain_ref="zips.ref", documented=False),
    ])
    out = tmp_path / "out.csv"
    save_dictionary(d, out)
    again = load_dictionary(out)
    assert again.fields == d.fields


# ---------------------------------------------------------------- field drift

def test_detect_undocumented_both_directions(tmp_path):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text(
        "Unique Key,Status,@Computed Region 92fq,Mystery\n1,Open,x,y\n",
        encoding="utf-8",
    )
    table = open_table(csv_path)
    d = DataDictionary([
        FieldDescriptor(name="unique_key", type_class="integer"),
        FieldDescriptor(name="status", type_class="categorical"),
        FieldDescriptor(name="agency", type_class="text"),
    ])
    drift = detect_undocumented(table, d)
    assert drift.undocumented == ["computed_region_92fq", "mystery"]
    assert drift.unobserved == ["agency"]
    assert drift.experimental == ["computed_region_92fq"]


def test_is_experimental_checks_both_names():
    assert is_experimental("@computed_region_92fq", "computed_region_92fq")
    assert is_experimental("anything", "computed_region_abc")
    assert not is_experimental("Location", "location")


# --------------------------------------------------------------- domain drift

def make_dict(**domains):
    fields = []
    for name, spec in domains.items():
        if isinstance(spec, str):
            fields.append(FieldDescriptor(name=name, type_class="categorical", domain_ref=spec))
        else:
            fields.append(FieldDescriptor(name=name, type_class="categorical", domain=tuple(spec)))
    return DataDictionary(fields)


def test_check_domains_reports_both_directions():
    profiles = [FakeProfile("status", {"Open": 5, "Closed": 3, "Zombie": 2, "Ghost": 1})]
    d = make_dict(status=("Open", "Closed", "Pending"))
    drift = check_domains(profiles, d)
    assert drift.undeclared == {"status": {"Ghost": 1, "Zombie": 2}}
    assert drift.unobserved_declared == {"status": ["Pending"]}
    assert drift.skipped_approximate == []


def test_check_domains_trims_before_comparing():
    profiles = [FakeProfile("status", {" Open": 2, "Open ": 3, "Closed": 1})]
    d = make_dict(status=("Open", "Closed"))
    drift = check_domains(profiles, d)
    assert drift.undeclared == {}
    assert drift.unobserved_declared == {}


def test_check_domains_case_fold_merges_counts():
    profiles = [FakeProfile("status", {"OPEN": 2, "open": 3, "weird": 1})]
    d = make_dict(status=("Open",))
    strict = check_domains(profiles, d)
    assert set(strict.undeclared["status"]) == {"OPEN", "open", "weird"}
    folded = check_domains(profiles, d, case_fold=True)
    assert folded.undeclared == {"status": {"weird": 1}}


def test_check_domains_uses_references_for_domain_ref():
    profiles = [FakeProfile("incident_zip", {"10001": 4, "99999": 1})]
    d = make_dict(incident_zip="zips.ref")
    with_ref = check_domains(profiles, d, references={"incident_zip": frozenset({"10001", "10002"})})
    assert with_ref.undeclared == {"incident_zip": {"99999": 1}}
    assert with_ref.unobserved_declared == {"incident_zip": ["10002"]}
    # no reference loaded: nothing to compare against
    without = check_domains(profiles, d)
    assert without.undeclared == {} and without.unobserved_declared == {}


def test_check_domains_skips_approximate_profiles():
    profiles = [FakeProfile("status", {"Open": 1}, approximate=True)]
    drift = check_domains(profiles, make_dict(status=("Open",)))
    assert drift.skipped_approximate == ["status"]
    assert drift.undeclared == {}


def test_check_domains_ignores_unprofiled_fields():
    drift = check_domains([], make_dict(status=("Open",)))
    assert drift.undeclared == {} and drift.unobserved_declared == {}


@given(
    observed=st.dictionaries(
        st.text(alphabet="abcXYZ ", min_size=1, max_size=4),
        st.integers(min_value=1, max_value=9),
        max_size=8,
    ),
    declared=st.lists(st.text(alphabet="abcXYZ", min_size=1, max_size=4), max_size=5, unique=True),
)
def test_check_domains_agrees_with_set_arithmetic(observed, declared):
    drift = check_domains(
        [FakeProfile("f", observed)],
        make_dict(f=tuple(declared)) if declared else DataDictionary(
            [FieldDescriptor(name="f", type_class="categorical", domain=())]
        ),
    )
    # brute force on trimmed values
    obs_trimmed = {}
    for v, n in observed.items():
        obs_trimmed[v.strip()] = obs_trimmed.get(v.strip(), 0) + n
    expect_undeclared = {v: n for v, n in obs_trimmed.items() if v not in {d.strip() for d in declared}}
    got = drift.undeclared.get("f", {})
    assert got == expect_undeclared
    expect_missing = [d for d in declared if d.strip() not in obs_trimmed]
    assert drift.unobserved_declared.get("f", []) == expect_missing


def test_drift_findings_rule_ids_and_order(tmp_path):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("A,@Computed Region x\n1,2\n", encoding="utf-8")
    table = open_table(csv_path)
    d = DataDictionary([FieldDescriptor(name="gone", type_class="text")])
    field_drift = detect_undocumented(table, d)
    domain_drift = check_domains(
        [FakeProfile("status", {"Zombie": 2})],
        make_dict(status=("Open",)),
    )
    out = drift_findings(field_drift, domain_drift)
    assert [f.rule_id for f in out] == [
        "undocumented_field", "undocumented_field", "unobserved_field",
        "undeclared_value", "unobserved_declared",
    ]
    assert "experimental region tag" in out[1].message
    assert "Zombie" in out[2 + 1].message


# ---------------------------------------------------------------- type checks

TYPE_CSV = """\
Unique Key,Count,Ratio,When,Point,Label
K1,12,40.5,01/27/2023 02:45:13 PM,"(40.7, -73.9)",ok
K2,-3,.5,2023-01-27 14:45:13,"( 40 , -73 )",ok
K3,NA,null,N/A,,
K4,1.5,40.,27 Jan,"40.7, -73.9",ok
K5,007,+0.25,03/12/2023 02:30:00 AM,"(40.7,-73.9)",ok
"""


def type_dictionary():
    return DataDictionary([
        FieldDescriptor(name="unique_key", type_class="text"),
        FieldDescriptor(name="count", type_class="integer"),
        FieldDescriptor(name="ratio", type_class="decimal"),
        FieldDescriptor(name="when", type_class="timestamp"),
        FieldDescriptor(name="point", type_class="geo_point"),
        FieldDescriptor(name="label", type_class="categorical"),
    ])


def run_type_checker(tmp_path, emit=None, key_field=None):
    p = tmp_path / "t.csv"
    p.write_text(TYPE_CSV, encoding="utf-8")
    table = open_table(p)
    checker = TypeChecker(type_dictionary(), emit=emit)
    stream_rows(table, [checker], key_field=key_field)
    return checker.report


def test_type_checker_counts(tmp_path):
    rep = run_type_checker(tmp_path)
    # text and categorical columns are not type-checked at all
    assert set(rep.checked) == {"count", "ratio", "when", "point"}
    # row K3 is all sentinels: not checked, not violating
    assert rep.checked == {"count": 4, "ratio": 4, "when": 4, "point": 4}
    # K4 injects one violation per column; the DST gap time in K5 still
    # parses structurally so it conforms
    assert rep.violations == {"count": 1, "ratio": 1, "when": 1, "point": 1}
    assert rep.samples["count"] == [(4, "1.5")]
    assert rep.samples["point"] == [(4, "40.7, -73.9")]


def test_type_checker_key_locator(tmp_path):
    rep = run_type_checker(tmp_path, key_field="unique_key")
    assert rep.samples["count"] == [("K4", "1.5")]


def test_type_checker_names_the_ordinal_of_a_row_without_a_key():
    d = DataDictionary([FieldDescriptor(name="n", type_class="integer")])
    keys = ["K1", "NA", "  ", "", "null", "K6"]
    report = feed(TypeChecker(d), {"k": keys, "n": ["x1", "x2", "x3", "x4", "x5", "x6"]}, key_field="k")
    assert report.samples["n"] == [("K1", "x1"), (2, "x2"), (3, "x3"), (4, "x4"), (5, "x5")]


def test_type_checker_aggregates_findings(tmp_path):
    got = []
    run_type_checker(tmp_path, emit=got.append)
    assert len(got) == 4                     # one per affected field, not per cell
    by_field = {f.fields[0]: f for f in got}
    f = by_field["count"]
    assert f.rule_id == "type_violation"
    assert f.measured.value == 1 and f.measured.unit == "cells"
    assert "integer" in f.message and "1.5" in f.message


def test_type_checker_sample_cap(tmp_path):
    rows = "\n".join(f"bad{i}" for i in range(9))
    p = tmp_path / "caps.csv"
    p.write_text("n\n" + rows + "\n", encoding="utf-8")
    table = open_table(p)
    d = DataDictionary([FieldDescriptor(name="n", type_class="integer")])
    checker = TypeChecker(d)
    stream_rows(table, [checker])
    assert checker.report.violations["n"] == 9
    assert len(checker.report.samples["n"]) == TypeChecker.SAMPLE_CAP


@pytest.mark.parametrize("type_class,good,bad", [
    ("integer", ["0", "007", "+5", "-5", " 12 "], ["", "1.5", "1e3", "twelve", "1 2", "0x1f"]),
    ("decimal", ["0", "40.5", ".5", "+0.25", "-3", " 1.0 "], ["40.", "1e3", "1,5", "4.5.6", "."]),
    ("geo_point", ["(40.7, -73.9)", "( 40 , -73 )", "(40.7,-73.9)"],
     ["40.7, -73.9", "(40.7; -73.9)", "(40.7, -73.9", "(, )"]),
])
def test_validators(type_class, good, bad):
    d = DataDictionary([FieldDescriptor(name="v", type_class=type_class)])
    report = feed(TypeChecker(d), {"v": good + bad})
    present_bad = [v for v in bad if v]     # "" is missing, so never validated
    assert report.checked["v"] == len(good) + len(present_bad)
    assert report.violations["v"] == len(present_bad)
    assert [v for _, v in report.samples["v"]] == present_bad[:TypeChecker.SAMPLE_CAP]


def test_epoch_zero_timestamps_are_valid():
    # wall epoch 0, and UTC epoch 0 under us_eastern: a falsy reading is still a reading
    d = DataDictionary([FieldDescriptor(name="when", type_class="timestamp")])
    report = feed(TypeChecker(d), {"when": ["01/01/1970 12:00:00 AM", "12/31/1969 07:00:00 PM", "nope"]})
    assert report.checked["when"] == 3
    assert report.violations["when"] == 1
    assert report.samples["when"] == [(3, "nope")]
