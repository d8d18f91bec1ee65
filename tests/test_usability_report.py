"""Tests for the consolidated usability report."""

import pytest

from repro.core import PipelineConfig, run_catapult
from repro.datasets import generate_chemical_repository, generate_workload
from repro.patterns import PatternBudget
from repro.usability import usability_report


@pytest.fixture(scope="module")
def report():
    repo = generate_chemical_repository(20, seed=91)
    workload = list(generate_workload(repo, 8, seed=92))
    selection = run_catapult(repo, PipelineConfig(
        budget=PatternBudget(4, min_size=4, max_size=8), seed=1))
    return usability_report(workload, list(selection.patterns),
                            title="Test report", seed=3)


class TestUsabilityReport:
    def test_sections_present(self, report):
        assert "# Test report" in report.markdown
        assert "## Performance measures" in report.markdown
        assert "## Preference measures" in report.markdown
        assert "## Learning curve" in report.markdown

    def test_tables_well_formed(self, report):
        lines = [l for l in report.markdown.splitlines()
                 if l.startswith("|")]
        assert lines
        for line in lines:
            assert line.endswith("|")

    def test_raw_numbers_attached(self, report):
        assert report.study.by_name("manual")
        assert "data-driven" in report.preferences
        assert report.learning_curve.session_seconds

    def test_headline_claims_in_text(self, report):
        assert "fewer" in report.markdown
        assert "faster" in report.markdown

    def test_save(self, report, tmp_path):
        path = tmp_path / "report.md"
        report.save(str(path))
        assert path.read_text().startswith("# Test report")
