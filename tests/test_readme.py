"""The README's "Library use" examples run as written against this package."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_library_use_examples_run(capsys):
    blocks = _library_use_blocks()
    assert len(blocks) == 3
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["result"].edges_processed == len(namespace["dataset"].test)
    assert namespace["store"].peak_edges <= 2000
    assert namespace["fixed_report"].chunk_length == 16
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
