"""The README's Python example and API list match the current package."""

import importlib
import re
from pathlib import Path

from ellipsopt import reporting
from ellipsopt.bench import SUMMARY_COLUMNS, BenchConfig, run_experiment

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


def test_readme_quotes_the_n10_cut_row_as_it_runs(tmp_path):
    text = " ".join(README.read_text(encoding="utf-8").split())
    loss, f_star = re.search(r"At m=20000, n=10, seed 0 and 150 iterations, both are ([\d.]+), "
                             r"against f\* = ([\d.]+)\.", text).groups()
    outcome = run_experiment(BenchConfig(m=20000, n=10, seeds=(0,), max_iters=150, out_dir=str(tmp_path)))
    seed = outcome.seed_outcomes[0]
    (cut,) = [row for row in seed.rows if row.solver == "ellipsoid"]
    # "both" is the cut row's final and returned test loss, each to the printed digits
    digits = len(loss.split(".")[1])
    assert f"{cut.final_test_loss:.{digits}f}" == f"{cut.returned_test_loss:.{digits}f}" == loss
    assert f"{seed.f_star_test:.{len(f_star.split('.')[1])}f}" == f_star


def test_readme_quotes_the_summary_header():
    formats = README.read_text(encoding="utf-8").split("## Artifacts and formats", 1)[1]
    header = re.search(r"`summary\.csv`.*?under the header\s+`([^`]+)`", formats, flags=re.DOTALL).group(1)
    assert header == ",".join(SUMMARY_COLUMNS)
