"""The README's library tour runs as written, so a public name it shows but
the package no longer has fails the suite."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
