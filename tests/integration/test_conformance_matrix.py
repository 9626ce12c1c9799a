"""Cross-strategy conformance: every example, every engine, one verdict.

The full matrix -- every shipped ``examples/programs/*.impl`` under
every resolution strategy x overlap policy x cache on/off -- must
produce *identical verdicts*, with every intentional divergence asserted
individually rather than skipped:

* ``recursive_eq.impl`` resolves only under ``corecursive`` (the other
  three strategies report ``resolution_divergence`` by design -- the
  rule environment violates the termination condition the syntactic
  engines assume, docs/RESOLUTION.md);
* ``broken.impl`` fails under *every* configuration with the same
  diagnosis (it is the lint showcase; no strategy may "rescue" it).

Modus-ponens subtyping is a decision procedure, not a strategy, so it
has no column here; the ``subtyping`` fuzz oracle checks it against
resolution.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.cli import main
from repro.core.resolution import ResolutionStrategy

ROOT = pathlib.Path(__file__).resolve().parents[2]
PROGRAMS = sorted((ROOT / "examples" / "programs").glob("*.impl"))
STRATEGIES = [s.value for s in ResolutionStrategy]
POLICIES = ["no_overlap", "most_specific"]
CACHES = ["cache", "no-cache"]

# The complete expected-verdict table: (exit code, error slug or None)
# per program, with the strategy-dependent exceptions spelled out.  A
# new example or a new strategy fails collection here until its row is
# decided explicitly -- conformance is opt-in, never accidental.
PASS = (0, None)
EXPECTED: dict[str, dict[str, tuple[int, str | None]]] = {
    "eq.impl": {s: PASS for s in STRATEGIES},
    "show.impl": {s: PASS for s in STRATEGIES},
    "sort.impl": {s: PASS for s in STRATEGIES},
    "broken.impl": {s: (1, "source_type") for s in STRATEGIES},
    "recursive_eq.impl": {
        s: (1, "resolution_divergence") for s in STRATEGIES
    }
    | {"corecursive": PASS},
}


def _slug(err: str) -> str | None:
    for line in err.splitlines():
        if line.startswith("error: "):
            return line.split(":", 2)[1].strip()
    return None


def _cells():
    for program in PROGRAMS:
        for strategy in STRATEGIES:
            for policy in POLICIES:
                for cache in CACHES:
                    yield pytest.param(
                        program,
                        strategy,
                        policy,
                        cache,
                        id=f"{program.name}-{strategy}-{policy}-{cache}",
                    )


def test_every_program_and_strategy_has_an_expected_verdict():
    assert sorted(EXPECTED) == sorted(p.name for p in PROGRAMS)
    for table in EXPECTED.values():
        assert sorted(table) == sorted(STRATEGIES)


@pytest.mark.parametrize("program,strategy,policy,cache", _cells())
def test_verdict_conformance(program, strategy, policy, cache, capsys):
    argv = ["check", "--strategy", strategy]
    if policy == "most_specific":
        argv.append("--most-specific")
    if cache == "no-cache":
        argv.append("--no-cache")
    argv.append(str(program))
    code = main(argv)
    err = capsys.readouterr().err
    expected_code, expected_slug = EXPECTED[program.name][strategy]
    assert code == expected_code, err
    assert _slug(err) == expected_slug


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_corecursive_is_the_only_rescue_for_recursive_eq(strategy, capsys):
    # The divergence carve-out, asserted positively: under corecursive
    # the program *prints its answer*; under everything else the CLI
    # exits 1 with the structured divergence slug and no output.
    program = ROOT / "examples" / "programs" / "recursive_eq.impl"
    code = main(["check", "--strategy", strategy, str(program)])
    out, err = capsys.readouterr()
    if strategy == "corecursive":
        assert code == 0
        assert "Bool" in out
    else:
        assert code == 1
        assert _slug(err) == "resolution_divergence"
        assert out == ""


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize(
    "program,expected",
    [
        ("eq.impl", "(False, True)"),
        ("show.impl", "('1,2,3', '1 2 3')"),
        ("sort.impl", "((1, 2, 3), (3, 2, 1))"),
    ],
)
def test_run_output_is_strategy_independent(program, expected, strategy, capsys):
    path = ROOT / "examples" / "programs" / program
    assert main(["run", "--strategy", strategy, str(path)]) == 0
    assert expected in capsys.readouterr().out
