"""Every demo runs to the end: demo 02 drives ``verify_nonconvergence`` and
the counterexample construction, demo 03 the CLI with artifacts on disk."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("0*.py"))


def test_demos_are_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_library_tour_prints_its_outcome(capsys):
    """README's one ``python`` block runs against the current API and prints
    the outcome its comment names."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    exec(compile(blocks[0].split("```")[0], "README.md", "exec"), {})
    assert capsys.readouterr().out == "certified-holds\n"
