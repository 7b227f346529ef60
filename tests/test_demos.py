"""Every script in demos/ and the README quick start run against the current API."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the demos write their SVGs here
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start(capsys):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md quick start", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # the star-product line shows its output in a trailing comment
    shown = next(line for line in block.splitlines() if line.startswith("print(moyal_product"))
    assert printed[0] == shown.split("# ", 1)[1]
