"""The benchmark's three workloads and their seeded inputs.

Each workload is a fixture shape (rows, padding), a config and a command
sequence. A run's `--seed` picks one of SEED_POOL fixture seeds per
workload; README.md records the sha256 of every one of those inputs, and
`check_digest` refuses an input whose bytes differ, so a change to the
generator cannot move a workload without showing.

Print the digest table anew (to paste into README.md) with:

    python3 perfbench/workloads.py
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
README = HERE / "README.md"
WORK = HERE / "_work"

SEED_POOL = 8
POST_CLOSE_WINDOW_DAYS = 30     # odqa's default; no workload config sets it

# Same text as tests/conftest.py::AUDIT_CONFIG_TEMPLATE. Copied rather than
# imported so that an edit to the test suite cannot move a workload.
AUDIT_CONFIG = """\
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

# distinct_cap sits between the widest low-cardinality column (about 40
# zips) and the seven near-unique ones, and equals sketch_capacity so the
# overflow seeds the sketch without dropping any exact count.
CAPPED_EXTRA = """\
profile: {{distinct_cap: 1000, sketch_capacity: 1000}}
temporal: {{extreme_cutoff_days: 30}}
"""

REDUCE_CONFIG = """\
input: {input}
out_dir: {out_dir}
fields:
  key: unique_key
pairs:
  - [borough, park_borough]
concat:
  - {{target: location, a: latitude, b: longitude}}
plan:
  encode: [complaint_type, status, agency]
"""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                   # "audit" or "reduce"
    rows: int
    description_pad: int
    seed_base: int
    config: str
    extreme_cutoff_days: int = 730
    distinct_cap: int = 1_000_000
    sketch_capacity: int = 10_000


WORKLOADS = {
    w.name: w
    for w in (
        Workload("audit-exact", "audit", rows=30_000, description_pad=0,
                 seed_base=1000, config=AUDIT_CONFIG),
        Workload("audit-capped", "audit", rows=30_000, description_pad=0,
                 seed_base=2000, config=AUDIT_CONFIG + CAPPED_EXTRA,
                 extreme_cutoff_days=30, distinct_cap=1000, sketch_capacity=1000),
        Workload("reduce-padded", "reduce", rows=20_000, description_pad=850,
                 seed_base=3000, config=REDUCE_CONFIG),
    )
}


def fixture_seed(workload: Workload, seed: int) -> int:
    return workload.seed_base + seed % SEED_POOL


@dataclass(frozen=True)
class Inputs:
    csv: Path
    zips: Path
    config: Path
    out_dir: Path
    rebuilt: Path


def build_inputs(workload: Workload, seed: int, work_dir: Path) -> Inputs:
    """Generate the workload's fixture and write its config under work_dir."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from odqa.generator import generate_fixture

    fx = generate_fixture(
        work_dir / "input",
        rows=workload.rows,
        seed=fixture_seed(workload, seed),
        description_pad=workload.description_pad,
    )
    out_dir = work_dir / "out"
    config = work_dir / "bench.yaml"
    config.write_text(workload.config.format(
        input=fx.csv_path, dictionary=fx.dictionary_path,
        zips=fx.zip_reference_path, out_dir=out_dir,
    ), encoding="utf-8")
    return Inputs(fx.csv_path, fx.zip_reference_path, config, out_dir, work_dir / "rebuilt.csv")


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def recorded_digests(readme: Path = README) -> dict[tuple[str, int], str]:
    """(workload, fixture seed) -> sha256, from README's digest table rows."""
    out = {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0] in WORKLOADS and cells[1].isdigit() and len(cells[2]) == 64:
            out[(cells[0], int(cells[1]))] = cells[2]
    return out


class InputChanged(Exception):
    pass


def check_digest(workload: Workload, seed: int, csv_path: Path) -> None:
    key = (workload.name, fixture_seed(workload, seed))
    want = recorded_digests().get(key)
    got = sha256_of(csv_path)
    if want != got:
        raise InputChanged(
            f"{workload.name} fixture seed {key[1]}: input sha256 {got} differs from "
            f"README.md ({want}); a generator change moved the workload"
        )


def main() -> int:
    import tempfile

    print("| workload | fixture seed | sha256 of the input CSV |")
    print("| --- | --- | --- |")
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for w in WORKLOADS.values():
            for seed in range(SEED_POOL):
                inputs = build_inputs(w, seed, Path(tmp) / f"{w.name}-{seed}")
                print(f"| {w.name} | {fixture_seed(w, seed)} | `{sha256_of(inputs.csv)}` |",
                      flush=True)
                inputs.csv.unlink()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
