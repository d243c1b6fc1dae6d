"""README stays in sync with the code it describes."""

import re
from pathlib import Path

from odqa.cli import build_parser
from odqa.config import load_config
from odqa.findings import RULE_CATALOG

README = Path(__file__).resolve().parent.parent / "README.md"

ROW = re.compile(r"^\| `([a-z_]+)` \| (info|warning|error) \| (.+?) \|$")
YAML_BLOCK = re.compile(r"^```yaml\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def readme_rule_table():
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        m = ROW.match(line)
        if m:
            rows[m.group(1)] = (m.group(2), m.group(3))
    return rows


def test_rule_table_matches_catalog():
    documented = readme_rule_table()
    expected = {
        rule: (severity.label, description)
        for rule, (severity, description) in RULE_CATALOG.items()
    }
    assert documented == expected


def test_readme_names_every_subcommand():
    text = README.read_text(encoding="utf-8")
    parser = build_parser()
    actions = [a for a in parser._subparsers._group_actions][0]
    for name in actions.choices:
        assert f"odqa {name}" in text


def test_every_yaml_block_loads(tmp_path):
    blocks = YAML_BLOCK.findall(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme_{i}.yaml"
        path.write_text(block, encoding="utf-8")
        load_config(path)
