"""Tier-1 gate and unit tests for the reprolint invariant checker.

The headline test runs the full pass over ``src/repro`` and asserts
zero violations — DESIGN.md's determinism, dependency-hygiene, and
complexity-cap contracts are machine-checked on every test run.
Fixture tests then pin each rule to exact (rule id, file, line)
findings using ``# expect: RXXX`` markers embedded in deliberate
violation snippets under ``tests/fixtures/reprolint/``.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOLS_DIR = REPO_ROOT / "tools"
SRC_TREE = REPO_ROOT / "src" / "repro"
FIXTURE_DIR = REPO_ROOT / "tests" / "fixtures" / "reprolint"

sys.path.insert(0, str(TOOLS_DIR))

from reprolint import LintConfig, all_rules, lint_paths  # noqa: E402
from reprolint.baseline import Baseline  # noqa: E402
from reprolint.reporters import (json_report, sarif_report,  # noqa: E402
                                 text_report)
from reprolint.runner import lint_source  # noqa: E402
from reprolint.violations import PARSE_ERROR, Violation  # noqa: E402

EXPECT_MARKER = re.compile(r"#\s*expect:\s*(R\d{3}(?:\s*,\s*R\d{3})*)")
ALL_RULE_IDS = ("R001", "R002", "R003", "R004", "R005", "R006", "R007",
                "R008", "R009", "R010", "R011", "R012", "R013", "R014",
                "R016", "R017", "R019")

#: The whole-program rules (backed by reprolint.analysis).
PROJECT_RULE_IDS = ("R011", "R012", "R013", "R014")

# R008/R016 only fire inside matching/truss package directories,
# R009 inside catapult/tattoo/midas ones, and R019 inside store
# ones, so their in-scope fixtures live under matching/, catapult/,
# and store/ subdirectories; the top-level rXXX_clean.py files
# double as the out-of-scope tests.
FIXTURE_VIOLATION_PATHS = {"R008": "matching/r008_violation.py",
                           "R009": "catapult/r009_violation.py",
                           "R016": "matching/r016_violation.py",
                           "R019": "store/r019_violation.py"}


def expected_findings(path: Path):
    """(line, rule) pairs declared by ``# expect:`` markers."""
    expected = set()
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        match = EXPECT_MARKER.search(line)
        if match:
            for rule in match.group(1).split(","):
                expected.add((lineno, rule.strip()))
    return expected


class TestSrcTreeIsClean(unittest.TestCase):
    """The repo's own contracts hold: zero violations under src/."""

    def test_full_pass_over_src_repro(self):
        result = lint_paths([str(SRC_TREE)])
        self.assertGreater(result.files_checked, 50)
        self.assertEqual(
            [], [v.format() for v in result.violations],
            "src/repro violates its own DESIGN.md contracts")
        self.assertTrue(result.ok)

    def test_every_rule_ran(self):
        result = lint_paths([str(SRC_TREE)])
        self.assertEqual(tuple(ALL_RULE_IDS), result.rules_run)


class TestFixtures(unittest.TestCase):
    """Each rule finds exactly its planted violations, nothing else."""

    def lint_fixture(self, name):
        path = FIXTURE_DIR / name
        self.assertTrue(path.exists(), f"missing fixture {name}")
        result = lint_paths([str(path)])
        return path, result

    def assert_matches_markers(self, name):
        path, result = self.lint_fixture(name)
        expected = expected_findings(path)
        self.assertTrue(expected, f"{name} declares no expect markers")
        found = {(v.line, v.rule) for v in result.violations}
        self.assertEqual(expected, found)
        for violation in result.violations:
            self.assertEqual(str(path), violation.path)
            self.assertGreaterEqual(violation.col, 0)
            self.assertTrue(violation.message)

    def assert_clean(self, name):
        path, result = self.lint_fixture(name)
        self.assertEqual(
            [], [v.format() for v in result.violations],
            f"{name} should lint clean")

    def test_violation_fixtures(self):
        for rule_id in ALL_RULE_IDS:
            with self.subTest(rule=rule_id):
                self.assert_matches_markers(FIXTURE_VIOLATION_PATHS.get(
                    rule_id, f"{rule_id.lower()}_violation.py"))

    def test_clean_fixtures(self):
        for rule_id in ALL_RULE_IDS:
            with self.subTest(rule=rule_id):
                self.assert_clean(f"{rule_id.lower()}_clean.py")

    def test_r008_in_scope_clean_fixture(self):
        # adjacency-set-view code inside a matching/ dir lints clean
        self.assert_clean("matching/r008_clean.py")

    def test_r009_in_scope_clean_fixture(self):
        # span-wrapped stages inside a catapult/ dir lint clean
        self.assert_clean("catapult/r009_clean.py")

    def test_r016_in_scope_clean_fixture(self):
        # CSR-faithful compact usage inside a matching/ dir lints clean
        self.assert_clean("matching/r016_clean.py")

    def test_r019_in_scope_clean_fixture(self):
        # fsync-disciplined writes inside a store/ dir lint clean
        self.assert_clean("store/r019_clean.py")

    def test_each_violation_fixture_exercises_only_its_rule(self):
        for rule_id in ALL_RULE_IDS:
            path = FIXTURE_DIR / FIXTURE_VIOLATION_PATHS.get(
                rule_id, f"{rule_id.lower()}_violation.py")
            rules = {rule for _, rule in expected_findings(path)}
            self.assertEqual({rule_id}, rules)


class TestSuppression(unittest.TestCase):
    SNIPPET = ("import random\n"
               "\n"
               "def jitter():\n"
               "    return random.Random(){comment}\n")

    def test_line_suppression_mutes_the_rule(self):
        clean = lint_source(self.SNIPPET.format(
            comment="  # reprolint: disable=R001"))
        self.assertEqual([], clean)

    def test_line_suppression_is_rule_specific(self):
        still_flagged = lint_source(self.SNIPPET.format(
            comment="  # reprolint: disable=R002"))
        self.assertEqual(["R001"], [v.rule for v in still_flagged])

    def test_disable_all(self):
        clean = lint_source(self.SNIPPET.format(
            comment="  # reprolint: disable=all"))
        self.assertEqual([], clean)

    def test_file_level_suppression(self):
        source = ("# reprolint: disable-file=R001\n"
                  + self.SNIPPET.format(comment=""))
        self.assertEqual([], lint_source(source))

    def test_unsuppressed_line_still_flagged(self):
        source = self.SNIPPET.format(
            comment="  # reprolint: disable=R001")
        source += "\ndef other():\n    return random.Random()\n"
        flagged = lint_source(source)
        self.assertEqual(["R001"], [v.rule for v in flagged])


class TestConfig(unittest.TestCase):
    def test_select_and_disable(self):
        source = ("import networkx\n"
                  "import random\n"
                  "def f():\n"
                  "    return random.Random()\n")
        only_r002 = lint_source(
            source, config=LintConfig(select=frozenset({"R002"})))
        self.assertEqual(["R002"], [v.rule for v in only_r002])
        without_r001 = lint_source(
            source, config=LintConfig(disable=frozenset({"R001"})))
        self.assertEqual(["R002"], [v.rule for v in without_r001])

    def test_config_file_overrides_forbidden_imports(self):
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            config_path = os.path.join(tmp, "reprolint.json")
            with open(config_path, "w", encoding="utf-8") as handle:
                json.dump({"forbidden_imports": ["pandas"]}, handle)
            config = LintConfig.from_file(config_path)
        self.assertEqual([], lint_source("import networkx\n",
                                         config=config))
        flagged = lint_source("import pandas\n", config=config)
        self.assertEqual(["R002"], [v.rule for v in flagged])

    def test_parse_error_reported_as_r000(self):
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            bad = os.path.join(tmp, "broken.py")
            with open(bad, "w", encoding="utf-8") as handle:
                handle.write("def broken(:\n")
            result = lint_paths([bad])
        self.assertFalse(result.ok)
        self.assertEqual([PARSE_ERROR], [v.rule for v in result.violations])


class TestReporters(unittest.TestCase):
    def result_with_violations(self):
        return lint_paths([str(FIXTURE_DIR / "r001_violation.py")])

    def test_text_report_format(self):
        report = text_report(self.result_with_violations())
        self.assertIn("r001_violation.py:8:", report)
        self.assertIn("R001", report)
        self.assertIn("violation(s)", report)

    def test_text_report_clean(self):
        report = text_report(
            lint_paths([str(FIXTURE_DIR / "r001_clean.py")]))
        self.assertIn("no violations", report)

    def test_json_report_shape(self):
        payload = json.loads(json_report(self.result_with_violations()))
        self.assertEqual(payload["violation_count"],
                         len(payload["violations"]))
        self.assertEqual({"R001": payload["violation_count"]},
                         payload["violations_per_rule"])
        first = payload["violations"][0]
        self.assertEqual({"path", "line", "col", "rule", "message"},
                         set(first))
        self.assertEqual(list(ALL_RULE_IDS), payload["rules_run"])


class TestCli(unittest.TestCase):
    """End-to-end: ``python -m reprolint`` exit codes and output."""

    def run_cli(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(TOOLS_DIR)] + env.get("PYTHONPATH", "").split(os.pathsep))
        return subprocess.run(
            [sys.executable, "-m", "reprolint", *args],
            capture_output=True, text=True, env=env,
            cwd=str(REPO_ROOT))

    def test_src_tree_exits_zero(self):
        proc = self.run_cli("src/repro")
        self.assertEqual(0, proc.returncode, proc.stdout + proc.stderr)
        self.assertIn("no violations", proc.stdout)

    def test_violation_fixture_exits_nonzero(self):
        proc = self.run_cli(
            str(FIXTURE_DIR / "r003_violation.py"))
        self.assertEqual(1, proc.returncode)
        self.assertIn("R003", proc.stdout)

    def test_json_format(self):
        proc = self.run_cli(str(FIXTURE_DIR / "r002_violation.py"),
                            "--format", "json")
        self.assertEqual(1, proc.returncode)
        payload = json.loads(proc.stdout)
        self.assertTrue(all(v["rule"] == "R002"
                            for v in payload["violations"]))

    def test_disable_silences_rule(self):
        proc = self.run_cli(str(FIXTURE_DIR / "r001_violation.py"),
                            "--disable", "R001")
        self.assertEqual(0, proc.returncode, proc.stdout)

    def test_list_rules(self):
        proc = self.run_cli("--list-rules")
        self.assertEqual(0, proc.returncode)
        for rule_id in ALL_RULE_IDS:
            self.assertIn(rule_id, proc.stdout)

    def test_missing_path_is_usage_error(self):
        proc = self.run_cli("no/such/dir")
        self.assertEqual(2, proc.returncode)

    def test_unknown_rule_id_is_usage_error(self):
        # a typo'd --select must not silently run zero rules
        proc = self.run_cli("src/repro", "--select", "R999")
        self.assertEqual(2, proc.returncode)
        self.assertIn("unknown rule id", proc.stderr)


class TestRuleMetadata(unittest.TestCase):
    def test_registry_is_complete_and_documented(self):
        rules = all_rules()
        self.assertEqual(list(ALL_RULE_IDS), [cls.id for cls in rules])
        for cls in rules:
            self.assertTrue(cls.name)
            self.assertTrue(cls.description)

    def test_project_rules_declare_analysis_passes(self):
        from reprolint.analysis.project import ANALYSIS_PASSES
        for cls in all_rules():
            if cls.id in PROJECT_RULE_IDS:
                self.assertTrue(cls.requires,
                                f"{cls.id} should require a pass")
            for name in cls.requires:
                self.assertIn(name, ANALYSIS_PASSES)


class TestProjectRuleFixtures(unittest.TestCase):
    """R011-R014 findings vanish when disabled or suppressed."""

    def fixture(self, rule_id):
        return FIXTURE_DIR / f"{rule_id.lower()}_violation.py"

    def test_disabling_the_rule_silences_its_fixture(self):
        for rule_id in PROJECT_RULE_IDS:
            with self.subTest(rule=rule_id):
                config = LintConfig(disable=frozenset({rule_id}))
                result = lint_paths([str(self.fixture(rule_id))],
                                    config)
                self.assertEqual(
                    [], [v.format() for v in result.violations],
                    f"{rule_id} fixture should be clean when the "
                    f"rule is disabled")

    def test_pragma_suppresses_each_project_rule(self):
        for rule_id in PROJECT_RULE_IDS:
            with self.subTest(rule=rule_id):
                path = self.fixture(rule_id)
                lines = path.read_text(
                    encoding="utf-8").splitlines()
                for lineno, rule in expected_findings(path):
                    lines[lineno - 1] += \
                        f"  # reprolint: disable={rule}"
                muted = lint_source("\n".join(lines) + "\n",
                                    path=str(path))
                self.assertEqual(
                    [], [v.format() for v in muted],
                    f"{rule_id} pragma should mute the finding")


class TestSuppressionSpans(unittest.TestCase):
    """Pragmas anchor to whole statements, not single lines."""

    def test_pragma_on_last_line_of_multiline_statement(self):
        source = ("import random\n"
                  "def jitter():\n"
                  "    return random.Random(\n"
                  "    )  # reprolint: disable=R001\n")
        self.assertEqual([], lint_source(source))

    def test_pragma_on_intermediate_line(self):
        source = ("import random\n"
                  "def jitter():\n"
                  "    return random.Random(  # reprolint: disable=R001\n"
                  "    )\n")
        self.assertEqual([], lint_source(source))

    def test_compound_header_pragma_does_not_mute_body(self):
        # a def-line pragma covers the signature, not the body
        source = ("import random\n"
                  "def jitter(  # reprolint: disable=R001\n"
                  "        seed=None):\n"
                  "    return random.Random()\n")
        flagged = lint_source(source)
        self.assertEqual(["R001"], [v.rule for v in flagged])

    def test_sibling_statement_pragma_does_not_leak(self):
        source = ("import random\n"
                  "def jitter():\n"
                  "    a = 1  # reprolint: disable=R001\n"
                  "    return random.Random()\n")
        flagged = lint_source(source)
        self.assertEqual(["R001"], [v.rule for v in flagged])


class TestBaseline(unittest.TestCase):
    """lint-baseline.json: waivers expire; dead entries surface."""

    def violation(self, rule="R001", path="src/x.py", line=8):
        return Violation(path=path, line=line, col=0, rule=rule,
                         message="planted")

    def load(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "baseline.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            return Baseline.load(path)

    def entry(self, **overrides):
        entry = {"rule": "R001", "path": "src/x.py", "line": 8,
                 "reason": "fix in flight", "expires": "2999-01-01"}
        entry.update(overrides)
        return entry

    def test_matching_entry_waives(self):
        baseline = self.load({"entries": [self.entry()]})
        report = baseline.apply([self.violation()], "2026-01-01")
        self.assertEqual([], report.kept)
        self.assertEqual(1, len(report.waived))
        self.assertEqual([], report.expired)
        self.assertEqual([], report.stale)

    def test_expired_entry_stops_waiving(self):
        baseline = self.load(
            {"entries": [self.entry(expires="2020-01-01")]})
        report = baseline.apply([self.violation()], "2026-01-01")
        self.assertEqual(1, len(report.kept))
        self.assertEqual(1, len(report.expired))

    def test_unmatched_entry_is_stale(self):
        baseline = self.load(
            {"entries": [self.entry(path="src/other.py")]})
        report = baseline.apply([self.violation()], "2026-01-01")
        self.assertEqual(1, len(report.kept))
        self.assertEqual(1, len(report.stale))

    def test_omitted_line_waives_whole_file(self):
        entry = self.entry()
        del entry["line"]
        baseline = self.load({"entries": [entry]})
        report = baseline.apply(
            [self.violation(line=8), self.violation(line=80)],
            "2026-01-01")
        self.assertEqual([], report.kept)
        self.assertEqual(2, len(report.waived))

    def test_load_rejects_missing_expiry(self):
        entry = self.entry()
        del entry["expires"]
        with self.assertRaises(ValueError):
            self.load({"entries": [entry]})

    def test_load_rejects_malformed_date(self):
        with self.assertRaises(ValueError):
            self.load({"entries": [self.entry(expires="someday")]})

    def test_load_rejects_non_integer_line(self):
        with self.assertRaises(ValueError):
            self.load({"entries": [self.entry(line="8")]})

    def test_load_rejects_non_list_entries(self):
        with self.assertRaises(ValueError):
            self.load({"entries": {}})


class TestSarifReporter(unittest.TestCase):
    def test_sarif_shape(self):
        result = lint_paths([str(FIXTURE_DIR / "r001_violation.py")])
        payload = json.loads(sarif_report(result))
        self.assertEqual("2.1.0", payload["version"])
        run = payload["runs"][0]
        driver = run["tool"]["driver"]
        self.assertEqual("reprolint", driver["name"])
        self.assertEqual(list(ALL_RULE_IDS),
                         [rule["id"] for rule in driver["rules"]])
        self.assertEqual(len(result.violations), len(run["results"]))
        first = run["results"][0]
        self.assertEqual("R001", first["ruleId"])
        region = first["locations"][0]["physicalLocation"]["region"]
        self.assertEqual(result.violations[0].line,
                         region["startLine"])
        # SARIF columns are 1-based; ast columns are 0-based
        self.assertEqual(result.violations[0].col + 1,
                         region["startColumn"])
        uri = first["locations"][0]["physicalLocation"][
            "artifactLocation"]["uri"]
        self.assertNotIn("\\", uri)

    def test_sarif_clean_run_has_empty_results(self):
        result = lint_paths([str(FIXTURE_DIR / "r001_clean.py")])
        payload = json.loads(sarif_report(result))
        self.assertEqual([], payload["runs"][0]["results"])


class TestProjectCli(unittest.TestCase):
    """--project mode: cache, baseline wiring, determinism, stats."""

    def run_cli(self, *args, cwd=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(TOOLS_DIR)] + env.get("PYTHONPATH", "").split(os.pathsep))
        return subprocess.run(
            [sys.executable, "-m", "reprolint", *args],
            capture_output=True, text=True, env=env,
            cwd=str(cwd or REPO_ROOT))

    def test_project_sarif_runs_are_byte_identical(self):
        with tempfile.TemporaryDirectory() as cache:
            first = self.run_cli("--project", "--format", "sarif",
                                 "--cache-dir", cache, "src/repro")
            second = self.run_cli("--project", "--format", "sarif",
                                  "--cache-dir", cache, "src/repro")
        self.assertEqual(0, first.returncode,
                         first.stdout + first.stderr)
        self.assertEqual(0, second.returncode)
        self.assertEqual(first.stdout, second.stdout)
        payload = json.loads(first.stdout)
        self.assertEqual([], payload["runs"][0]["results"])

    def test_stats_go_to_stderr_only(self):
        with tempfile.TemporaryDirectory() as cache:
            proc = self.run_cli(
                "--project", "--stats", "--format", "json",
                "--cache-dir", cache,
                str(FIXTURE_DIR / "r001_violation.py"))
        json.loads(proc.stdout)  # stdout stays pure JSON
        self.assertIn("stats", proc.stderr)
        self.assertIn("cache", proc.stderr)

    def write_baseline(self, tmp, **overrides):
        entry = {"rule": "R001",
                 "path": str(FIXTURE_DIR / "r001_violation.py"),
                 "reason": "planted fixture", "expires": "2999-01-01"}
        entry.update(overrides)
        path = os.path.join(tmp, "baseline.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"entries": [entry]}, handle)
        return path

    def test_baseline_waives_fixture_violations(self):
        with tempfile.TemporaryDirectory() as tmp:
            baseline = self.write_baseline(tmp)
            proc = self.run_cli(
                str(FIXTURE_DIR / "r001_violation.py"),
                "--baseline", baseline)
        self.assertEqual(0, proc.returncode,
                         proc.stdout + proc.stderr)
        self.assertIn("waived", proc.stderr)

    def test_expired_baseline_entry_is_reported(self):
        with tempfile.TemporaryDirectory() as tmp:
            baseline = self.write_baseline(tmp, expires="2020-01-01")
            proc = self.run_cli(
                str(FIXTURE_DIR / "r001_violation.py"),
                "--baseline", baseline)
        self.assertEqual(1, proc.returncode)
        self.assertIn("expired", proc.stderr)

    def test_malformed_baseline_is_usage_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            baseline = self.write_baseline(tmp, expires="never")
            proc = self.run_cli(
                str(FIXTURE_DIR / "r001_violation.py"),
                "--baseline", baseline)
        self.assertEqual(2, proc.returncode)
        self.assertIn("bad baseline", proc.stderr)

    def test_checked_in_baseline_is_loadable_and_empty(self):
        baseline = Baseline.load(str(REPO_ROOT / "lint-baseline.json"))
        self.assertEqual([], baseline.entries)


if __name__ == "__main__":
    unittest.main()
