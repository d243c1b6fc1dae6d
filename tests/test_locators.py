"""One locator rule for every consumer, through a real stream.

A row is located by its key cell when a key is mapped and the cell is
present, else by its 1-based ordinal; its agency is the agency cell when
present, else None. Key and agency cells here are drawn from present
values and every missing kind, and the rows are written to disk and read
back through stream_rows, so the rule is checked as the pipeline runs it.
"""

import csv
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from odqa.domain_rules import GeoBoundsChecker, ReferenceChecker
from odqa.ingest import DEFAULT_CLASSIFIER, open_table, stream_rows
from odqa.profiling import ProfileCollector
from odqa.temporal import DurationAuditor

from conftest import feed

MISSING = ["", " ", "\t ", "NA", " NA ", "N/A", "<NA>", "null", "NULL"]
KEYS = st.sampled_from(MISSING + ["K1", "K2", " K3 ", "nope", "NA1", "Null-ish"])
AGENCIES = st.sampled_from(MISSING + ["NYPD", "DOT", " DOT", "n/a agency"])
HEADERS = ["unique_key", "agency", "created", "closed", "incident_zip", "latitude", "longitude"]
STAMP = "01/05/2023 10:00:00 AM"

ROWS = st.lists(
    st.tuples(KEYS, AGENCIES, st.booleans(), st.booleans()).map(
        lambda t: [t[0], t[1], STAMP, STAMP, "99999" if t[2] else "10001", "41.5" if t[3] else "40.7", "-74.0"]
    ),
    min_size=1, max_size=12,
)


def consumers():
    """The consumers that locate rows, and the findings each one emits."""
    found = [[], [], [], []]
    return [
        ProfileCollector(emit=found[0].append),
        DurationAuditor(created_field="created", closed_field="closed", emit=found[1].append),
        ReferenceChecker({"incident_zip": frozenset({"10001"})}, emit=found[2].append),
        GeoBoundsChecker("latitude", "longitude", emit=found[3].append),
    ], found


def present(cell):
    return DEFAULT_CLASSIFIER.kind_of(cell) is None


@settings(max_examples=40, deadline=None)
@given(ROWS, st.sampled_from([1, 30]))
def test_every_consumer_locates_rows_by_one_rule(tmp_path_factory, drawn, copies):
    rows = drawn * copies       # 30 copies of up to 12 rows cross batch ends
    path = tmp_path_factory.mktemp("loc") / "t.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([HEADERS, *rows])
    semantics = {"key_field": "unique_key", "agency_field": "agency"}

    streamed, found = consumers()
    stream_rows(open_table(path), streamed, **semantics)
    row_findings = [f for fs in found for f in fs if f.row_locator is not None]

    expected = []
    for ordinal, (key, agency, *_rest, zip_code, lat, _lon) in enumerate(rows, start=1):
        locator = key if present(key) else ordinal
        where = (locator, agency if present(agency) else None)
        expected.append(("zero_duration",) + where)
        if zip_code == "99999":
            expected.append(("invalid_value",) + where)
        if lat == "41.5":
            expected.append(("geo_out_of_bounds",) + where)
    got = [(f.rule_id, f.row_locator, f.agency) for f in row_findings]
    for rule in ("zero_duration", "invalid_value", "geo_out_of_bounds"):
        assert [g for g in got if g[0] == rule] == [e for e in expected if e[0] == rule]
    assert len(got) == len(expected)

    profiles = streamed[0].profiles
    for i, name in enumerate(HEADERS):
        naive = Counter(row[1] for row in rows if present(row[i]) and present(row[1]))
        assert profiles[i].per_agency_present == dict(naive), name

    # feed, one consumer at a time, gives each consumer's findings in the same order
    columns = {name: [row[i] for row in rows] for i, name in enumerate(HEADERS)}
    fed, fed_found = consumers()
    for consumer in fed:
        feed(consumer, columns, **semantics)
    assert [[f.as_dict() for f in fs] for fs in fed_found] == [[f.as_dict() for f in fs] for fs in found]
    assert [p.as_dict() for p in fed[0].profiles] == [p.as_dict() for p in profiles]
