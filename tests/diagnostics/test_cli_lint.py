"""Integration tests for the ``repro lint`` CLI subcommand."""

import json
from pathlib import Path

import pytest

from repro.cli import main

BROKEN = (
    Path(__file__).resolve().parents[2] / "examples" / "programs" / "broken.impl"
)
SORT = BROKEN.parent / "sort.impl"

CLEAN = """
def intId : Int -> Int = \\n . n;
let use : {Int -> Int} => Int = ? 1 in
implicit intId in use
"""


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.impl"
    path.write_text(CLEAN)
    return str(path)


class TestLintCli:
    def test_clean_program_exits_zero_silently(self, capsys, clean_file):
        assert main(["lint", clean_file]) == 0
        assert capsys.readouterr().out == ""

    def test_broken_program_exits_one_with_carets(self, capsys):
        assert main(["lint", str(BROKEN)]) == 1
        out = capsys.readouterr().out
        for code in ["IC0402", "IC0301", "IC0501", "IC0401"]:
            assert code in out
        assert "^" in out  # caret underlines
        assert f"{BROKEN}:8:11:" in out

    def test_json_format_one_object_per_line(self, capsys):
        assert main(["lint", str(BROKEN), "--format", "json"]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        objects = [json.loads(line) for line in lines]
        assert [o["code"] for o in objects] == [
            "IC0402", "IC0301", "IC0501", "IC0401",
        ]
        assert all(o["path"].endswith("broken.impl") for o in objects)
        assert objects[0]["span"]["line"] == 8

    def test_json_output_is_stable_across_runs(self, capsys):
        main(["lint", str(BROKEN), str(SORT), "--format", "json"])
        first = capsys.readouterr().out
        main(["lint", str(BROKEN), str(SORT), "--format", "json"])
        assert capsys.readouterr().out == first

    def test_warnings_alone_exit_zero(self, capsys):
        # sort.impl deliberately shadows the comparator: a warning, not
        # an error.
        assert main(["lint", str(SORT)]) == 0
        assert "IC0502" in capsys.readouterr().out

    def test_max_warnings_budget(self, capsys):
        assert main(["lint", str(SORT), "--max-warnings", "1"]) == 0
        assert main(["lint", str(SORT), "--max-warnings", "0"]) == 1
        assert "max_warnings" in capsys.readouterr().err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        assert main(["lint", str(tmp_path / "nope.impl")]) == 2
        assert "error: io:" in capsys.readouterr().err

    def test_multiple_files_aggregate(self, capsys, clean_file):
        assert main(["lint", clean_file, str(BROKEN)]) == 1

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("let x = in 1"))
        assert main(["lint", "-"]) == 1
        assert "IC0102" in capsys.readouterr().out

    def test_no_semantic_skips_resolution_findings(self, capsys, tmp_path):
        path = tmp_path / "q.impl"
        path.write_text("let use : {Int -> Int} => Int = ? 1 in use")
        assert main(["lint", str(path)]) == 1
        assert "IC0207" in capsys.readouterr().out
        assert main(["lint", str(path), "--no-semantic"]) == 0

    def test_most_specific_policy_flag(self, capsys, tmp_path):
        path = tmp_path / "overlap.impl"
        path.write_text(
            "def anyId : forall a . a -> a = \\x . x;\n"
            "def intId : Int -> Int = \\n . n;\n"
            "let r : Int = implicit {anyId, intId} in ? 1 in r"
        )
        assert main(["lint", str(path)]) == 1
        capsys.readouterr()
        assert main(["lint", str(path), "--most-specific"]) == 0


class TestLintGolden:
    """``repro lint examples/programs/*.impl --format json`` is pinned
    byte for byte, so a shifted span or reworded message in any stage
    from the lexer on shows up as a diff (CI's "Lint smoke" step runs
    the same comparison through the installed entry point)."""

    GOLDEN = Path(__file__).resolve().parent / "golden" / "lint_examples.json"

    def test_examples_match_golden(self, capsys, monkeypatch):
        root = BROKEN.parents[2]
        monkeypatch.chdir(root)
        paths = sorted(
            str(p.relative_to(root)) for p in (root / "examples" / "programs").glob("*.impl")
        )
        assert main(["lint", *paths, "--format", "json"]) == 1
        assert capsys.readouterr().out == self.GOLDEN.read_text(encoding="utf-8")
