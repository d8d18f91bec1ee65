"""Smoke-run the shipped examples (they are part of the public API).

Each example is executed in a scratch directory via runpy, so file
artifacts (SVGs, spec JSONs) land in tmp and stdout stays quiet.
The examples that finish in a few seconds run here; the slow MIDAS
one (``evolving_database_maintenance.py``) is only compiled.
"""

import os
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, tmp_path, capsys):
    script = EXAMPLES / name
    assert script.exists(), f"missing example {name}"
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        runpy.run_path(str(script), run_name="__main__")
    finally:
        os.chdir(cwd)
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, tmp_path, capsys):
        out = run_example("quickstart.py", tmp_path, capsys)
        assert "repository: 80" in out
        assert "results:" in out
        assert (tmp_path / "pattern_panel.svg").exists()

    def test_timeseries_sketch_search(self, tmp_path, capsys):
        out = run_example("timeseries_sketch_search.py", tmp_path,
                          capsys)
        assert "Sketch Panel" in out
        assert "distance=" in out

    def test_chemical_catalog_search(self, tmp_path, capsys):
        out = run_example("chemical_catalog_search.py", tmp_path,
                          capsys)
        assert "CATAPULT selection" in out
        assert "data-driven vs manual" in out

    def test_social_network_exploration(self, tmp_path, capsys):
        out = run_example("social_network_exploration.py", tmp_path,
                          capsys)
        assert "built with tattoo" in out
        assert "embeddings found" in out

    def test_all_examples_compile(self):
        """Every example at least parses (cheap regression net)."""
        import py_compile
        for script in sorted(EXAMPLES.glob("*.py")):
            py_compile.compile(str(script), doraise=True)
