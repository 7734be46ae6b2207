import json
import re
import shlex
from pathlib import Path

from click.testing import CliRunner

import mmdf

from mmdf.cli import main
from mmdf.harness import PROFILES

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def config_block() -> str:
    text = README.read_text()
    section = text[text.index("A simulation config mirrors `ExperimentConfig`"):]
    return re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)


def test_library_entry_points_block_runs(tmp_path, monkeypatch):
    # the README's library example must keep working as the public API changes
    text = README.read_text()
    section = text[text.index("## Library entry points"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)  # the example writes an edge list
    exec(compile(block, "README.md", "exec"), {})


def test_public_names_are_the_readme_names():
    # every name the library block imports from mmdf is public, and every
    # public name is named somewhere in the README
    text = README.read_text()
    section = text[text.index("## Library entry points"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    imported = re.search(r"from mmdf import \((.*?)\)", block, re.DOTALL).group(1)
    names = {name.strip() for name in imported.split(",") if name.strip()}
    assert names and names <= set(mmdf.__all__), sorted(names - set(mmdf.__all__))
    unnamed = [name for name in mmdf.__all__ if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert not unnamed, unnamed


def test_simulation_config_block_runs(tmp_path):
    # the README's config example must stay a config that simulate runs
    block = config_block()
    config = tmp_path / "examples.json"
    config.write_text(block)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["simulate", "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    cells = json.loads((out / "sweep.json").read_text())["cells"]
    assert [c["value"] for c in cells] == json.loads(block)["sweep_values"]
    assert all(c["failures"] + c["successes"] == 25 for c in cells)


def test_stated_budgets_match_the_profiles():
    # the README's config paragraph and simulate --help state each budget
    text = README.read_text()
    paragraph = text[text.index("`profile` names the replication budget"):].split("\n\n")[0]
    assert {p: int(n) for p, n in re.findall(r'"(\w+)" = (\d+)', paragraph)} == PROFILES
    result = CliRunner().invoke(main, ["simulate", "--help"])
    assert result.exit_code == 0
    assert {p: int(n) for p, n in re.findall(r"(\w+)=(\d+)", result.output)} == PROFILES


def test_cli_block_runs(tmp_path, monkeypatch):
    # every mmdf line of the README's CLI example must exit 0; its paths
    # under src/ are the repository's, examples.json is the config block
    # and out/ lands in tmp_path
    text = README.read_text()
    section = text[text.index("## CLI"):]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = [ln for ln in block.splitlines() if ln.startswith("mmdf ")]
    assert len(lines) == 4
    (tmp_path / "examples.json").write_text(config_block())
    monkeypatch.chdir(tmp_path)
    for line in lines:
        args = [str(ROOT / a) if a.startswith("src/") else a for a in shlex.split(line)[1:]]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, (line, result.output)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "datasets.csv", "detect.json", "labels.csv", "memberships.csv",
        "scan.csv", "scan.json", "sweep.csv", "sweep.json",
    ]
