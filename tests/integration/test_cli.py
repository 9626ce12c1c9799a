"""Tests for the command-line interface."""

import subprocess
import sys

import pytest

from repro.cli import main

ISORT = """
let isort : forall a . {a -> a -> Bool} => [a] -> [a] = \\xs . sortBy ? xs in
implicit ltInt in isort [2, 1, 3]
"""

CORE = "implicit {1, True} in (?Int + 1, #not ?Bool) : (Int, Bool)"


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "program.impl"
    path.write_text(ISORT)
    return str(path)


@pytest.fixture
def core_file(tmp_path):
    path = tmp_path / "program.core"
    path.write_text(CORE)
    return str(path)


class TestCommands:
    def test_run_source(self, capsys, source_file):
        assert main(["run", source_file]) == 0
        out = capsys.readouterr().out
        assert "(1, 2, 3)" in out
        assert "[Int]" in out  # the printed type

    def test_run_core(self, capsys, core_file):
        assert main(["run", "--core", core_file]) == 0
        out = capsys.readouterr().out
        assert "(2, False)" in out

    def test_run_operational(self, capsys, core_file):
        assert main(["run", "--core", "--operational", core_file]) == 0
        assert "(2, False)" in capsys.readouterr().out

    def test_run_verified(self, capsys, core_file):
        assert main(["run", "--core", "--verify", core_file]) == 0

    def test_check(self, capsys, core_file):
        assert main(["check", "--core", core_file]) == 0
        assert "(Int, Bool)" in capsys.readouterr().out

    def test_compile_shows_core(self, capsys, source_file):
        assert main(["compile", source_file]) == 0
        out = capsys.readouterr().out
        assert "rule(" in out or "with" in out

    def test_elaborate_shows_systemf(self, capsys, core_file):
        assert main(["elaborate", "--core", core_file]) == 0
        out = capsys.readouterr().out
        assert "-- :" in out

    def test_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.impl"
        bad.write_text("undefinedVariable")
        assert main(["run", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_parse_error_exits_2_with_slug(self, capsys, tmp_path):
        bad = tmp_path / "bad.impl"
        bad.write_text("let let let")
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: parse:")
        assert err.count("\n") == 1  # exactly one structured line

    def test_duplicate_quantifiers_are_a_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "dup.core"
        bad.write_text("implicit {rule(forall a a . {a} => a, 1)} in 1 : Int")
        assert main(["run", "--core", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: parse: duplicate quantified variable 'a'")
        assert err.count("\n") == 1  # exactly one structured line

    def test_resolution_failure_exits_1_with_slug(self, capsys, tmp_path):
        bad = tmp_path / "bad.impl"
        bad.write_text("let x : Int = ? in x")  # empty implicit environment
        assert main(["run", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no_matching_rule:")

    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["run", str(tmp_path / "nope.impl")]) == 2
        assert "error: io:" in capsys.readouterr().err

    def test_stdin(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO("1 + 1"))
        assert main(["run", "-"]) == 0
        assert "2" in capsys.readouterr().out


class TestModuleEntryPoint:
    def test_python_dash_m(self, core_file):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--core", core_file],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "(2, False)" in result.stdout

    def test_version_flag(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("repro ")
        # Whatever the resolved version is, it must look like one.
        assert result.stdout.split()[1][0].isdigit()

    def test_failures_never_print_tracebacks(self, tmp_path):
        bad = tmp_path / "bad.impl"
        bad.write_text("let x : Int = ? in x")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "run", str(bad)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: no_matching_rule:")
