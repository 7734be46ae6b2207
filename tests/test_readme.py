import dataclasses
import json
import re
import shlex
import typing
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


def mmdf_classes(hint) -> set[type]:
    """The mmdf classes a resolved annotation names, its arguments included."""
    if typing.get_origin(hint) is None and isinstance(hint, type) and hint.__module__.startswith("mmdf"):
        return {hint}
    return set().union(*map(mmdf_classes, typing.get_args(hint)))


def annotated_classes(obj) -> set[type]:
    """The mmdf classes named by a function's return annotation, or by a
    class's field annotations and its public methods' return annotations."""
    if not isinstance(obj, type):
        return mmdf_classes(typing.get_type_hints(obj).get("return"))
    found = set()
    if dataclasses.is_dataclass(obj):
        hints = typing.get_type_hints(obj)
        found = set().union(*(mmdf_classes(hints[f.name]) for f in dataclasses.fields(obj)))
    for name, member in vars(obj).items():
        method = member.fget if isinstance(member, property) else member
        if not name.startswith("_") and callable(method):
            found |= annotated_classes(method)
    return found


def test_returned_types_are_public():
    # a value the public API hands out is of a public type, through any
    # chain of returns and fields
    public = {getattr(mmdf, name) for name in mmdf.__all__}
    seen: set[type] = set()
    todo = [obj for obj in public if callable(obj)]
    while todo:
        found = annotated_classes(todo.pop()) - seen
        seen |= found
        todo += found
    assert not seen - public, sorted(c.__name__ for c in seen - public)


def test_the_package_holds_one_public_list():
    holders = [p.name for p in sorted(Path(mmdf.__file__).parent.glob("*.py"))
               if re.search(r"^__all__\b", p.read_text(), re.MULTILINE)]
    assert holders == ["__init__.py"]


def test_type_table_gives_each_types_public_fields_and_methods():
    # each row's fields column names, in backticks, exactly the public
    # fields and methods of its type; a backticked type is a reference
    text = README.read_text()
    table = text[text.index("| type | returned by | fields |"):].split("\n\n")[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table.splitlines()[2:]]
    listed = {row[0].strip("`"): {name.split("(")[0] for name in re.findall(r"`([^`]+)`", row[2])}
              for row in rows}
    assert set(listed) == {"TopKEigen", "DfspReport", "KScanResult", "KScanPoint", "ModularityValue",
                           "ErrorPair", "MixednessIndices"}
    for name, names in listed.items():
        cls = getattr(mmdf, name)
        public = {f.name for f in dataclasses.fields(cls)} | {
            attr for attr, member in vars(cls).items()
            if not attr.startswith("_") and (callable(member) or isinstance(member, property))}
        assert names - set(listed) == public, name


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
