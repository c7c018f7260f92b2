"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_blocks_run():
    blocks = python_blocks()
    assert len(blocks) == 4
    namespace: dict = {}
    for block in blocks:  # later blocks use names that earlier ones define
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["check_invariants"](namespace["state"]) == []
    assert namespace["compare_with_flat"](namespace["state"], "f", namespace["t"]) == []
    assert namespace["report"].violations == ()
