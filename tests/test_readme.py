"""Every fenced ``python`` block of README.md runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)
TEXT = README.read_text(encoding="utf-8")
# (first line of the block's code, the code) for each block.
BLOCKS = [(TEXT.count("\n", 0, m.start(1)) + 1, m.group(1)) for m in FENCE.finditer(TEXT)]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(line, code):
    exec(compile(code, f"{README}:{line}", "exec"), {"__name__": "readme"})
