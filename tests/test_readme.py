"""The README's Python example and API list match the current package."""

import importlib
import re
from pathlib import Path

from ellipsopt import reporting

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})


def test_readme_entry_points_resolve():
    text = README.read_text(encoding="utf-8")
    section = text.split("Key entry points:", 1)[1].split("\n## ", 1)[0]
    modules, checked = 0, 0
    for module_name, body in re.findall(r"^- `(ellipsopt\.\w+)`:(.*?)(?=^- |\Z)", section,
                                        flags=re.DOTALL | re.MULTILINE):
        module = importlib.import_module(module_name)
        modules += 1
        # the `validate` subcommand is named there, not a Python name
        for name in set(re.findall(r"`(\w+)`", body)) - {"validate"}:
            assert hasattr(module, name), f"README lists {module_name}.{name}, which does not exist"
            checked += 1
    assert modules == 8 and checked >= 20


def test_readme_names_every_cut_kind_and_termination():
    text = README.read_text(encoding="utf-8")
    formats = text.split("## Artifacts and formats", 1)[1]
    kinds = re.search(r"`cut_kind` is (.*?);", formats, flags=re.DOTALL).group(1)
    assert tuple(re.findall(r"`([\w-]+)`", kinds)) == reporting.TRACE_CUT_KINDS
    ways = re.search(r"A cut run ends in one of three ways(.*?)\.", text, flags=re.DOTALL).group(1)
    terminations = {value for name, value in vars(reporting).items() if name.startswith("TERMINATION_")}
    assert set(re.findall(r"`(\w+)`", ways)) == terminations
    assert len(terminations) == 3
