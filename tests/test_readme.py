import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_entry_points_block_runs(tmp_path, monkeypatch):
    # the README's library example must keep working as the public API changes
    text = README.read_text()
    section = text[text.index("## Library entry points"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)  # the example writes an edge list
    exec(compile(block, "README.md", "exec"), {})
