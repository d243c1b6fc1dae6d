"""
Shrinking an export without losing a byte
=========================================

Plans a storage reduction from redundancy evidence, applies it, then
reconstructs the original file and proves the round trip byte-identical.
"""

import filecmp
import tempfile
from pathlib import Path

from odqa.config import load_config
from odqa.generator import generate_fixture
from odqa.pipeline import run_reduce_apply, run_reduce_plan
from odqa.reduce import reconstruct_table

work = Path(tempfile.mkdtemp(prefix="odqa_demo_"))
fixture = generate_fixture(work, rows=10_000, seed=1234)

# evidence drives the plan: park_borough mirrors borough on every row, the
# taxi column is blank outside one agency, location restates lat/lon, and
# two categorical columns repeat a handful of strings
config_path = work / "reduce.yaml"
config_path.write_text(f"""\
input: {fixture.csv_path}
out_dir: {work / 'out'}
fields:
  key: unique_key
pairs:
  - [borough, park_borough]
concat:
  - {{target: location, a: latitude, b: longitude}}
plan:
  encode: [complaint_type, status]
""", encoding="utf-8")

cfg = load_config(config_path)
planned = run_reduce_plan(cfg)
plan = planned.plan

print("planned actions:")
for action in plan.actions:
    tag = "lossless" if action.lossless else "lossy"
    print(f"  {action.kind:9s} {action.field:24s} {tag:8s} "
          f"saves ~{action.estimated_bytes_saved:,} bytes ({action.reason})")
print(f"baseline {plan.baseline_bytes:,} bytes, "
      f"estimated saving {plan.estimated_total_saved:,} ({plan.estimated_pct:.1f}%)")

applied = run_reduce_apply(cfg).apply_result
print(f"\napplied: main table {applied.bytes_after_main:,} bytes "
      f"(was {applied.bytes_before:,}), measured saving "
      f"{applied.measured_saved:,} ({applied.measured_pct:.1f}%)")
for field, path in applied.sidecar_paths.items():
    print(f"  sidecar    {field}: {Path(path).name}")
for field, path in applied.dictionary_paths.items():
    print(f"  dictionary {field}: {Path(path).name}")

rebuilt = work / "rebuilt.csv"
reconstruct_table(
    plan, applied.main_path, rebuilt,
    sidecar_paths=applied.sidecar_paths,
    dictionary_paths=applied.dictionary_paths,
)
same = filecmp.cmp(fixture.csv_path, rebuilt, shallow=False)
print(f"\nreconstruction byte-identical: {same}")
assert same
