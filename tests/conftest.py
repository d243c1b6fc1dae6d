import textwrap
from pathlib import Path

import pytest

from odqa.generator import generate_fixture
from odqa.ingest import BATCH_ROWS, Batch, RawTable, RowSemantics


def feed(consumer, columns: dict[str, list[str]], *, emit=None, batch_rows=BATCH_ROWS, **semantics):
    """Stream an in-memory table through a consumer, as stream_rows does.

    columns maps each header to its cell values, all of one length.
    semantics takes stream_rows' keyword arguments (classifier, parser,
    key_field, agency_field) and emit receives what their resolution
    reports. Calls start, then consume_batch once per batch_rows rows
    (1-based ordinals), then finish, and returns what finish returns.
    """
    headers = list(columns)
    table = RawTable(
        path=Path("<memory>"), raw_headers=headers, headers=headers, byte_size=0, has_bom=False,
    )
    shared = RowSemantics(table, emit or (lambda f: None), **semantics)
    consumer.start(table)
    rows = [list(row) for row in zip(*columns.values(), strict=True)]
    for lo in range(0, len(rows), batch_rows):
        chunk = rows[lo:lo + batch_rows]
        consumer.consume_batch(Batch(list(range(lo + 1, lo + 1 + len(chunk))), chunk, shared))
    return consumer.finish()


@pytest.fixture(scope="session")
def fixture_10k(tmp_path_factory):
    """The seeded 10k-row fixture shared by integration and acceptance tests."""
    out = tmp_path_factory.mktemp("fx10k")
    return generate_fixture(out, rows=10_000, seed=1234)


@pytest.fixture()
def write_csv(tmp_path):
    def _write(name: str, text: str, *, dedent: bool = True) -> Path:
        p = tmp_path / name
        p.write_text(textwrap.dedent(text) if dedent else text, encoding="utf-8")
        return p

    return _write


def write_config(path: Path, text: str) -> Path:
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


AUDIT_CONFIG_TEMPLATE = """\
input: {input}
dictionary: {dictionary}
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
precision:
  fields: [latitude, longitude]
unique:
  - field: unique_key
    required: true
pairs:
  - [borough, park_borough]
  - {{a: cross_street_1, b: intersection_street_1, normalizer: street}}
concat:
  - {{target: location, a: latitude, b: longitude}}
fd:
  - [agency, agency_name]
concentration:
  complaint_type: 5
"""


@pytest.fixture()
def fixture_audit_config(fixture_10k, tmp_path):
    """A full audit config pointed at the shared fixture."""
    cfg = tmp_path / "audit.yaml"
    cfg.write_text(AUDIT_CONFIG_TEMPLATE.format(
        input=fixture_10k.csv_path,
        dictionary=fixture_10k.dictionary_path,
        zips=fixture_10k.zip_reference_path,
        out_dir=tmp_path / "out",
    ), encoding="utf-8")
    return cfg
