"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"<README.md python block {i}>", "exec"), {"__name__": "readme"})
