"""Every ```python block of README.md runs as it stands, so a constructor
change cannot leave the quick start stale; the scenario JSON example and the
list of error codes are checked against the code."""

import ast
import re
from pathlib import Path

import pytest

from deltasubh.scenario_io import parse_scenario

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, flags=re.DOTALL | re.MULTILINE)


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_python_block_runs(code, capsys):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out


def test_readme_scenario_json_is_the_golden_fixture():
    (block,) = re.findall(r"^```json\n(.*?)^```$", TEXT, flags=re.DOTALL | re.MULTILINE)
    golden = ROOT / "tests" / "fixtures" / "golden_z_circle.json"
    assert parse_scenario(block) == parse_scenario(golden.read_bytes())


# the argument that holds the error code, by the callee's name
_CODE_ARGUMENT = {"ScenarioError": 0, "_fail": 0, "_number": 1, "_point": 1, "_typed": 2}


def test_readme_lists_every_error_code_and_no_other():
    raised = set()
    for path in (ROOT / "src" / "deltasubh").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                k = _CODE_ARGUMENT.get(name)
                arg = node.args[k] if k is not None and len(node.args) > k else None
                if isinstance(getattr(arg, "value", None), str):
                    raised.add(arg.value)
    listed = re.search(r"error codes\s*\(([^)]*)\)", TEXT).group(1)
    assert raised == set(re.findall(r"`([A-Z_]+)`", listed))
