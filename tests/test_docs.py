from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_use_block_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library use") :]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "<README.md: Library use>", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert printed and all(float(value) >= 0.0 for value in printed)
