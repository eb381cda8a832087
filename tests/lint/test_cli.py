"""CLI surface: formats, exit codes, and the self-documenting catalog."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.lint import all_rules
from repro.lint.cli import main
from repro.lint.reporters import render_rule_catalog


def run_cli(args, capsys):
    code = main(args)
    return code, capsys.readouterr().out


BAD_SNIPPET = (
    "import time\n"
    "\n"
    "def stamp():\n"
    "    return time.time()\n"
)


@pytest.fixture
def bad_tree(tmp_path):
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "scratch.py").write_text(BAD_SNIPPET)
    return tmp_path


class TestCli:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        code, out = run_cli([str(tmp_path)], capsys)
        assert code == 0
        assert "clean" in out

    def test_findings_exit_nonzero(self, bad_tree, capsys):
        code, out = run_cli([str(bad_tree)], capsys)
        assert code == 1
        assert "D101" in out

    def test_json_format(self, bad_tree, capsys):
        code, out = run_cli([str(bad_tree), "--format=json"], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["clean"] is False
        assert payload["count"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "D101"
        assert finding["line"] == 4

    def test_json_clean(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        code, out = run_cli([str(tmp_path), "--format=json"], capsys)
        assert code == 0
        assert json.loads(out)["clean"] is True

    def test_syntax_error_is_a_finding(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def f(:\n")
        code, out = run_cli([str(tmp_path)], capsys)
        assert code == 1
        assert "E000" in out

    def test_output_file_mirrors_the_report(self, bad_tree, capsys,
                                            tmp_path):
        report_path = tmp_path / "lint-report.json"
        code, out = run_cli([str(bad_tree), "--format=json",
                             "--output", str(report_path)], capsys)
        assert code == 1
        assert report_path.read_text() == out


class TestJsonSchema:
    """CI uploads the JSON report as a build artifact; its shape is a
    contract for downstream tooling and only changes with a version
    bump."""

    def test_schema_is_stable(self, bad_tree, capsys):
        code, out = run_cli([str(bad_tree), "--format=json"], capsys)
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert set(payload) == {"schema_version", "findings", "count",
                                "clean"}
        (finding,) = payload["findings"]
        assert set(finding) == {"path", "line", "col", "rule",
                                "severity", "message"}
        assert finding["severity"] == "error"


def _git(cwd, *args):
    subprocess.run(
        ["git", "-c", "user.email=lint@test", "-c", "user.name=lint",
         *args],
        cwd=cwd, check=True, capture_output=True)


@pytest.fixture
def git_tree(tmp_path):
    """A committed tree with one clean and one findings-bearing file."""
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "clean.py").write_text("x = 1\n")
    (pkg / "scratch.py").write_text(BAD_SNIPPET)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    return tmp_path


class TestChangedOnly:
    def test_findings_in_unchanged_files_are_filtered(self, git_tree,
                                                      capsys,
                                                      monkeypatch):
        monkeypatch.chdir(git_tree)
        (git_tree / "repro" / "sim" / "clean.py").write_text(
            "x = 2\n")
        code, out = run_cli(["repro", "--changed-only", "HEAD",
                             "--format=json"], capsys)
        # scratch.py still has its D101, but it did not change
        assert code == 0
        assert json.loads(out)["count"] == 0

    def test_findings_in_changed_files_are_reported(self, git_tree,
                                                    capsys,
                                                    monkeypatch):
        monkeypatch.chdir(git_tree)
        (git_tree / "repro" / "sim" / "scratch.py").write_text(
            BAD_SNIPPET + "\n# touched\n")
        code, out = run_cli(["repro", "--changed-only", "HEAD",
                             "--format=json"], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["count"] == 1
        assert payload["findings"][0]["path"].endswith("scratch.py")

    def test_unknown_ref_falls_back_to_full_report(self, git_tree,
                                                   capsys,
                                                   monkeypatch):
        # a bad ref must not silently pass the gate
        monkeypatch.chdir(git_tree)
        code = main(["repro", "--changed-only", "no-such-ref",
                     "--format=json"])
        captured = capsys.readouterr()
        assert code == 1
        assert "cannot diff" in captured.err
        assert json.loads(captured.out)["count"] == 1


class TestRuleCatalog:
    def test_list_rules_nonempty(self, capsys):
        # the catalog cannot rot: every registered rule documents itself
        code, out = run_cli(["--list-rules"], capsys)
        assert code == 0
        rules = all_rules()
        assert len(rules) >= 9
        for rule in rules:
            assert rule.id in out
            assert rule.summary.split("(")[0].strip()[:30] in out

    def test_every_rule_has_id_severity_summary_example(self):
        for rule in all_rules():
            assert rule.id and rule.id[0] in "DAFSXW"
            assert rule.summary
            assert rule.example
            assert str(rule.severity) in ("error", "warning")
            assert rule.kind in ("file", "program")

    def test_expected_families_present(self):
        ids = {rule.id for rule in all_rules()}
        assert ids == {"D101", "D102", "D103", "D104",
                       "A201", "A202", "F401",
                       "S901", "S902", "S903",
                       "D201", "A301", "X501", "X502",
                       "S601", "W601"}

    def test_whole_program_rules_are_program_kind(self):
        kinds = {rule.id: rule.kind for rule in all_rules()}
        for rule_id in ("D201", "A301", "X501", "X502",
                        "S601", "W601"):
            assert kinds[rule_id] == "program"
        for rule_id in ("D101", "A202", "F401"):
            assert kinds[rule_id] == "file"

    def test_catalog_mentions_suppression_syntax(self):
        text = render_rule_catalog()
        assert "lint: ignore[RULE-ID]" in text


class TestModuleInvocation:
    def test_python_dash_m_entry_point(self, bad_tree):
        # the CI job runs exactly this
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + env.get("PYTHONPATH", "").split(os.pathsep))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(bad_tree),
             "--format=json"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["count"] == 1
