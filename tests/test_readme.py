"""Every ```python block of README.md runs as it stands, so a constructor
change cannot leave the quick start stale."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.DOTALL | re.MULTILINE)


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_python_block_runs(code, capsys):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out
