"""The README's library examples run as written."""

import re
from pathlib import Path

from helpers import DATA

README = Path(__file__).resolve().parent.parent / "README.md"


def library_blocks() -> list[str]:
    """The Python code blocks of the README's "Library use" section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.DOTALL)


def test_library_use_runs_on_the_mission_policy(tmp_path, monkeypatch, capsys):
    # The first block reads ./policy.aopl: the mission domain and its strict policy.
    text = "".join(
        (DATA / name).read_text(encoding="utf-8") for name in ("mission.dom", "mission_strict.aopl")
    )
    (tmp_path / "policy.aopl").write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    blocks = library_blocks()
    assert len(blocks) == 3
    namespace: dict = {}
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md, block {number}", "exec"), namespace)
    out = capsys.readouterr().out
    assert "inconsistency assume_comm(c,m)" in out
    assert namespace["merged"].states_examined == 16
