"""Smoke tests for the scripts in demos/.

Every demo is loaded without running its ``main`` so a renamed or removed
API it imports fails here.  The two fastest are also run end to end into
a temporary directory; running all eight would take about a minute.
"""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_are_collected():
    assert len(DEMOS) == 8


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    namespace = runpy.run_path(str(path))
    assert callable(namespace["main"])


@pytest.mark.parametrize("name", ["01_response_family", "07_dissipation"])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    path = next(p for p in DEMOS if p.stem == name)
    monkeypatch.setattr(sys, "argv", [str(path), str(tmp_path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
