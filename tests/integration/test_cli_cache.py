"""``repro --cache-dir`` and the ``repro cache`` subcommand.

The CLI surface of the persistent derivation store: resolution runs
persist and reuse records across processes, and ``cache
stats|verify|compact|clear`` give operators the runbook verbs
(docs/PERSISTENCE.md).  The headline failure-semantics claim is pinned
end to end: after the log is corrupted mid-file, ``cache verify`` exits
1 and names the quarantined records, while ``check --cache-dir``
against the same store still succeeds.
"""

import json
import os

import pytest

from repro.cli import main

CORE = "implicit {1, True} in (?Int + 1, #not ?Bool) : (Int, Bool)"


@pytest.fixture
def core_file(tmp_path):
    path = tmp_path / "program.core"
    path.write_text(CORE)
    return str(path)


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def stats(capsys, cache_dir):
    capsys.readouterr()  # drop any earlier command's output
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    return json.loads(capsys.readouterr().out)


def corrupt_log(cache_dir):
    path = os.path.join(cache_dir, "derivations.log")
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.seek(size // 2)
        fh.write(b"\xff\xff\xff\xff")


class TestCacheDir:
    def test_check_persists_and_rereads(self, capsys, core_file, cache_dir):
        assert main(["check", "--core", core_file, "--cache-dir", cache_dir]) == 0
        first = stats(capsys, cache_dir)
        assert first["records"] > 0
        assert main(["check", "--core", core_file, "--cache-dir", cache_dir]) == 0
        assert stats(capsys, cache_dir)["records"] == first["records"]

    def test_no_cache_disables_persistence(self, core_file, cache_dir):
        assert main(
            ["check", "--core", core_file, "--cache-dir", cache_dir, "--no-cache"]
        ) == 0
        assert not os.path.exists(os.path.join(cache_dir, "derivations.log"))

    def test_run_accepts_cache_dir(self, core_file, cache_dir):
        assert main(["run", "--core", core_file, "--cache-dir", cache_dir]) == 0


class TestCacheSubcommand:
    def test_verify_is_clean_then_exits_1_after_corruption(
        self, capsys, core_file, cache_dir
    ):
        assert main(["check", "--core", core_file, "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "verify", "--cache-dir", cache_dir]) == 0
        clean = json.loads(capsys.readouterr().out)
        assert clean["ok"] and clean["quarantined"] == 0

        corrupt_log(cache_dir)
        capsys.readouterr()
        assert main(["cache", "verify", "--cache-dir", cache_dir]) == 1
        damaged = json.loads(capsys.readouterr().out)
        assert not damaged["ok"] and damaged["quarantined"] > 0

        # Quarantine degrades, never fails: resolution over the damaged
        # store still succeeds (recompute + re-persist).
        assert main(["check", "--core", core_file, "--cache-dir", cache_dir]) == 0

    def test_compact_reclaims_quarantined_bytes(self, capsys, core_file, cache_dir):
        assert main(["check", "--core", core_file, "--cache-dir", cache_dir]) == 0
        corrupt_log(cache_dir)
        capsys.readouterr()
        assert main(["cache", "compact", "--cache-dir", cache_dir]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bytes_after"] <= report["bytes_before"]
        assert main(["cache", "verify", "--cache-dir", cache_dir]) == 0

    def test_clear_empties_the_store(self, capsys, core_file, cache_dir):
        assert main(["check", "--core", core_file, "--cache-dir", cache_dir]) == 0
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert stats(capsys, cache_dir)["records"] == 0

    def test_stats_on_a_missing_store_is_a_structured_error(
        self, capsys, tmp_path
    ):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "ghost")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no store at" in err


class TestUnreadablePaths:
    """IO trouble is a structured ``error:`` line and exit 2, never a traceback.

    The tests provoke :class:`OSError` with directory/file shape mismatches
    (a directory where the log file should be, and vice versa) rather than
    permission bits, which are ignored when the suite runs as root.
    """

    def test_verify_with_log_replaced_by_directory(self, capsys, tmp_path):
        store = tmp_path / "store"
        (store / "derivations.log").mkdir(parents=True)
        assert main(["cache", "verify", "--cache-dir", str(store)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: io:")
        assert "Traceback" not in err

    def test_compact_with_cache_dir_as_file(self, capsys, tmp_path):
        clobbered = tmp_path / "store"
        clobbered.write_text("not a directory")
        assert main(["cache", "compact", "--cache-dir", str(clobbered)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: io:")

    def test_replay_with_artifact_path_as_directory(self, capsys, tmp_path):
        artifact = tmp_path / "artifact.json"
        artifact.mkdir()
        assert main(["fuzz", "--replay", str(artifact)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: io:")
        assert "Traceback" not in err

    def test_replay_with_malformed_artifact_dict(self, capsys, tmp_path):
        artifact = tmp_path / "artifact.json"
        artifact.write_text(json.dumps({"oracle": "compiled"}))  # no "case"
        assert main(["fuzz", "--replay", str(artifact)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid_artifact:")

    def test_replay_with_non_json_artifact(self, capsys, tmp_path):
        artifact = tmp_path / "artifact.json"
        artifact.write_text("not json {")
        assert main(["fuzz", "--replay", str(artifact)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid_request:")
