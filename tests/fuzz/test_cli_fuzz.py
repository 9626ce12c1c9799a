"""End-to-end tests of the ``repro fuzz`` command-line interface."""

from __future__ import annotations

import json

from repro.cli import main


class TestFuzzCommand:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["fuzz", "--seed", "0", "--cases", "30"]) == 0
        out = capsys.readouterr().out
        assert "seed=0" in out
        assert "disagree=0" in out
        assert "DISAGREE" not in out

    def test_oracle_selection(self, capsys):
        code = main(
            ["fuzz", "--cases", "10", "--oracle", "compiled", "--oracle", "cache"]
        )
        assert code == 0
        assert "oracles=compiled,cache" in capsys.readouterr().out

    def test_unknown_oracle_exits_two(self, capsys):
        assert main(["fuzz", "--cases", "1", "--oracle", "nonesuch"]) == 2
        assert "unknown oracle" in capsys.readouterr().err

    def test_stats_flag_prints_fuzz_counters(self, capsys):
        assert main(["fuzz", "--cases", "5", "--oracle", "compiled", "--stats"]) == 0
        err = capsys.readouterr().err
        assert "-- resolution stats --" in err
        assert "fuzz_cases" in err

    def test_budget_note_when_exhausted(self, capsys):
        assert main(["fuzz", "--cases", "100000", "--budget-s", "0"]) == 0
        assert "budget exhausted" in capsys.readouterr().out


class TestFaultInjectionEndToEnd:
    def test_faulted_run_finds_shrinks_and_replays(self, tmp_path, capsys):
        artifact_dir = tmp_path / "artifacts"
        code = main(
            [
                "fuzz",
                "--seed",
                "0",
                "--cases",
                "20",
                "--oracle",
                "cache",
                "--inject-fault",
                "cache",
                "--artifact-dir",
                str(artifact_dir),
            ]
        )
        assert code == 1  # disagreements found
        out = capsys.readouterr().out
        assert "DISAGREE oracle=cache" in out
        artifacts = sorted(artifact_dir.glob("fuzz-seed0-*.json"))
        assert artifacts
        payload = json.loads(artifacts[0].read_text())
        shrunk_rules = sum(len(f) for f in payload["case"]["frames"])
        assert shrunk_rules <= 3
        # Replay reproduces (the artifact remembers its fault) ...
        assert main(["fuzz", "--replay", str(artifacts[0])]) == 0
        replay_out = capsys.readouterr().out
        assert "reproduced" in replay_out
        assert "NOT reproduced" not in replay_out
        # ... and byte-deterministically so.
        assert main(["fuzz", "--replay", str(artifacts[0])]) == 0
        assert capsys.readouterr().out == replay_out

    def test_replay_missing_file_exits_two(self, capsys):
        assert main(["fuzz", "--replay", "/nonexistent/a.json"]) == 2
        assert "error: io:" in capsys.readouterr().err

    def test_no_shrink_flag_skips_minimization(self, capsys):
        code = main(
            [
                "fuzz",
                "--cases",
                "20",
                "--oracle",
                "cache",
                "--inject-fault",
                "cache",
                "--no-shrink",
            ]
        )
        assert code == 1
        assert "(0 steps)" in capsys.readouterr().out
