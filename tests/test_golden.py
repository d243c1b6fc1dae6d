"""Golden digests of every output on the seeded 10k fixture.

Each of the five commands runs on `fixture_10k` with the audit config
plus an encode plan; reduce-apply runs the plan that reduce-plan wrote,
and `reconstruct_table` rebuilds the input from what reduce-apply wrote.
Every file a command writes is digested, the rebuilt file too, and
report.json also section by section, so a failure names the part that
moved. Paths differ between machines, so before hashing the output
directory and the fixture directory are replaced by placeholders and the
config digest (a hash over those paths) by another.

A change that alters an output on purpose re-records the table: run
`PYTHONPATH=src python tests/test_golden.py` and paste what it prints.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from odqa import pipeline
from odqa.config import load_config
from odqa.generator import generate_fixture
from odqa.reduce import reconstruct_table

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
from conftest import AUDIT_CONFIG_TEMPLATE  # noqa: E402

GOLDEN = {
    "audit/pairs.csv": "4518188bbe95df07",
    "audit/profiles.csv": "5764a161591c176d",
    "audit/report.json": "ecc9dd8b30eb38ae",
    "audit/report.json:command": "8855233a0eba6936",
    "audit/report.json:config_digest": "c97ecce69011b8d4",
    "audit/report.json:dataset": "162c8a2936676e93",
    "audit/report.json:finding_counts": "98f26cf4a99f4f8b",
    "audit/report.json:samples": "ad2597b99abe954b",
    "audit/report.json:schema_version": "6b86b273ff34fce1",
    "audit/report.json:sections.concentration": "6bb61fb2b1067a05",
    "audit/report.json:sections.dictionary": "488557916317ca29",
    "audit/report.json:sections.domain": "9aceda7227f9ce3b",
    "audit/report.json:sections.profiles": "645165f4bcee59b5",
    "audit/report.json:sections.redundancy": "d13453e97b16ac45",
    "audit/report.json:sections.stream": "3a4c59b90509c9e5",
    "audit/report.json:sections.temporal": "0e36dbafa364f4c5",
    "audit/report.json:sections.tiers": "d1f3376e6534dc00",
    "audit/report.json:severity_threshold": "c94f9df6f3f7bc69",
    "audit/report.json:severity_totals": "980f5c68930b1562",
    "audit/report.md": "24cc711e9872d1a5",
    "profile/profiles.csv": "5764a161591c176d",
    "profile/report.json": "82e525ff43f381aa",
    "profile/report.json:command": "2021b7c372990f79",
    "profile/report.json:config_digest": "c97ecce69011b8d4",
    "profile/report.json:dataset": "162c8a2936676e93",
    "profile/report.json:finding_counts": "bc6ba452c654013c",
    "profile/report.json:samples": "235bfe159af6ec75",
    "profile/report.json:schema_version": "6b86b273ff34fce1",
    "profile/report.json:sections.concentration": "6bb61fb2b1067a05",
    "profile/report.json:sections.profiles": "645165f4bcee59b5",
    "profile/report.json:sections.stream": "3a4c59b90509c9e5",
    "profile/report.json:sections.tiers": "d1f3376e6534dc00",
    "profile/report.json:severity_threshold": "c94f9df6f3f7bc69",
    "profile/report.json:severity_totals": "0cab7e133bf2dda1",
    "profile/report.md": "b8934afb19c7f14b",
    "dict-check/profiles.csv": "5764a161591c176d",
    "dict-check/report.json": "f1bace6963753666",
    "dict-check/report.json:command": "ac316818eb660a53",
    "dict-check/report.json:config_digest": "c97ecce69011b8d4",
    "dict-check/report.json:dataset": "162c8a2936676e93",
    "dict-check/report.json:finding_counts": "bc6ba452c654013c",
    "dict-check/report.json:samples": "235bfe159af6ec75",
    "dict-check/report.json:schema_version": "6b86b273ff34fce1",
    "dict-check/report.json:sections.dictionary": "488557916317ca29",
    "dict-check/report.json:sections.stream": "3a4c59b90509c9e5",
    "dict-check/report.json:severity_threshold": "c94f9df6f3f7bc69",
    "dict-check/report.json:severity_totals": "0cab7e133bf2dda1",
    "dict-check/report.md": "a239e0423e478b73",
    "reduce-plan/pairs.csv": "4518188bbe95df07",
    "reduce-plan/plan.json": "36e31d183fe36bd2",
    "reduce-plan/profiles.csv": "5764a161591c176d",
    "reduce-plan/report.json": "0e186c1397c2095f",
    "reduce-plan/report.json:command": "4404cbc03c5d1979",
    "reduce-plan/report.json:config_digest": "c97ecce69011b8d4",
    "reduce-plan/report.json:dataset": "162c8a2936676e93",
    "reduce-plan/report.json:finding_counts": "dd1ebe7a3d246bf0",
    "reduce-plan/report.json:samples": "4e43b97d8ce3a413",
    "reduce-plan/report.json:schema_version": "6b86b273ff34fce1",
    "reduce-plan/report.json:sections.plan": "b6a6a5b42b34f7ab",
    "reduce-plan/report.json:sections.profiles": "645165f4bcee59b5",
    "reduce-plan/report.json:sections.redundancy": "d13453e97b16ac45",
    "reduce-plan/report.json:sections.stream": "3a4c59b90509c9e5",
    "reduce-plan/report.json:sections.tiers": "d1f3376e6534dc00",
    "reduce-plan/report.json:severity_threshold": "c94f9df6f3f7bc69",
    "reduce-plan/report.json:severity_totals": "8215eff642df3c81",
    "reduce-plan/report.md": "bf38304cea9a9e08",
    "reduce-apply/agency.dict.csv": "df7a117c89f719ed",
    "reduce-apply/apply_result.json": "4d59c25613f43f11",
    "reduce-apply/complaint_type.dict.csv": "3e388458ab7e2860",
    "reduce-apply/reduced.csv": "ca9e06d7a756c5a8",
    "reduce-apply/report.json": "efe4bfd76ef21995",
    "reduce-apply/report.json:command": "603f910faa1edd80",
    "reduce-apply/report.json:config_digest": "c97ecce69011b8d4",
    "reduce-apply/report.json:dataset": "162c8a2936676e93",
    "reduce-apply/report.json:finding_counts": "44136fa355b3678a",
    "reduce-apply/report.json:samples": "44136fa355b3678a",
    "reduce-apply/report.json:schema_version": "6b86b273ff34fce1",
    "reduce-apply/report.json:sections.apply": "530e7360b4425c8f",
    "reduce-apply/report.json:sections.plan": "7ad8cb47cba2e605",
    "reduce-apply/report.json:severity_threshold": "c94f9df6f3f7bc69",
    "reduce-apply/report.json:severity_totals": "44136fa355b3678a",
    "reduce-apply/status.dict.csv": "711023f5a9c3d61d",
    "reduce-apply/taxi_company_borough.sidecar.csv": "751012ab8c2a3f32",
    "rebuild/rebuilt.csv": "b4d7721359980e95",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def golden_digests(fixture, work: Path) -> dict[str, str]:
    """Run the five commands and digest their normalized outputs."""
    config_path = work / "golden.yaml"
    config_path.write_text(AUDIT_CONFIG_TEMPLATE.format(
        input=fixture.csv_path,
        dictionary=fixture.dictionary_path,
        zips=fixture.zip_reference_path,
        out_dir=work / "out",
    ) + "plan:\n  encode: [complaint_type, status, agency]\n", encoding="utf-8")
    runs = (
        ("audit", pipeline.run_audit),
        ("profile", pipeline.run_profile),
        ("dict-check", pipeline.run_dict_check),
        ("reduce-plan", pipeline.run_reduce_plan),
        ("reduce-apply", lambda cfg: pipeline.run_reduce_apply(cfg, work / "reduce-plan" / "plan.json")),
    )
    out: dict[str, str] = {}
    for command, run in runs:
        cfg = load_config(config_path)
        cfg.out_dir = work / command
        result = run(cfg)
        for path in sorted(cfg.out_dir.iterdir()):
            text = path.read_text(encoding="utf-8")
            text = text.replace(str(cfg.out_dir), "<out>").replace(str(fixture.csv_path.parent), "<input>")
            text = text.replace(cfg.digest(), "<config>")
            out[f"{command}/{path.name}"] = _digest(text)
            if path.name == "report.json":
                report = json.loads(text)
                sections = report.pop("sections")
                for key, value in sorted({**report, **{f"sections.{k}": v for k, v in sections.items()}}.items()):
                    out[f"{command}/report.json:{key}"] = _digest(json.dumps(value, sort_keys=True))
    applied = result.apply_result      # reduce-apply ran last
    rebuilt = work / "rebuilt.csv"
    reconstruct_table(
        result.plan, applied.main_path, rebuilt,
        sidecar_paths=applied.sidecar_paths, dictionary_paths=applied.dictionary_paths,
    )
    out["rebuild/rebuilt.csv"] = _digest(rebuilt.read_text(encoding="utf-8"))
    return out


def test_outputs_match_golden_digests(fixture_10k, tmp_path):
    got = golden_digests(fixture_10k, tmp_path)
    changed = sorted(k for k in GOLDEN.keys() | got.keys() if GOLDEN.get(k) != got.get(k))
    assert not changed, f"outputs moved from the golden digests: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        fx = generate_fixture(Path(tmp) / "fx", rows=10_000, seed=1234)
        for key, value in golden_digests(fx, Path(tmp)).items():
            print(f'    "{key}": "{value}",')
