import json
import re
from pathlib import Path

from click.testing import CliRunner

from mmdf.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_entry_points_block_runs(tmp_path, monkeypatch):
    # the README's library example must keep working as the public API changes
    text = README.read_text()
    section = text[text.index("## Library entry points"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)  # the example writes an edge list
    exec(compile(block, "README.md", "exec"), {})


def test_simulation_config_block_runs(tmp_path):
    # the README's config example must stay a config that simulate runs
    text = README.read_text()
    section = text[text.index("A simulation config mirrors `ExperimentConfig`"):]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    config = tmp_path / "examples.json"
    config.write_text(block)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["simulate", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    cells = json.loads((out / "sweep.json").read_text())["cells"]
    assert [c["value"] for c in cells] == json.loads(block)["sweep_values"]
    assert all(c["failures"] + c["successes"] == 25 for c in cells)
