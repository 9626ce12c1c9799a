"""The parser's nesting cap (docs/DIAGNOSTICS.md, IC0102).

Past :data:`repro.source.parser.MAX_NESTING` open levels a program is a
parse error at the opening token; a program exactly at the cap runs end
to end.  Before the cap, 100 nested parentheses or 300 nested lambdas
crashed ``run``/``check``/``lint`` with a ``RecursionError`` traceback.
Long flat sequences are not capped; one too deep for the stages after
the parser is one coded error (IC0405) at the CLI and in the service.
"""

import pytest

from repro.cli import main
from repro.errors import ParseError
from repro.source.parser import MAX_NESTING, parse_program

#: kind -> (prefix, core, suffix, opener): ``prefix * d + core +
#: suffix * d`` nests ``d`` levels, each opened by ``opener``.
NESTINGS = {
    "parentheses": ("1 + (", "1", ")", "("),
    "brackets": ("[", "1", "]", "["),
    "lambdas": ("\\x . ", "x", "", "\\"),
    "let": ("let x : Int = 1 in ", "x", "", "let"),
    "implicit": ("implicit ltInt in ", "1", "", "implicit"),
    "if": ("if True then ", "1", " else 2", "if"),
}


def nested(kind: str, depth: int) -> str:
    prefix, core, suffix, _ = NESTINGS[kind]
    if kind == "lambdas":
        # Applied, so the program has a value: the parentheses are one
        # more level.
        return "(" + prefix * (depth - 1) + core + ")" + " 1" * (depth - 1)
    return prefix * depth + core + suffix * depth


@pytest.fixture
def impl_file(tmp_path):
    def write(text: str) -> str:
        path = tmp_path / "deep.impl"
        path.write_text(text)
        return str(path)

    return write


@pytest.mark.parametrize("kind", sorted(NESTINGS))
class TestNestingCap:
    def test_program_at_the_cap_runs(self, kind, impl_file, capsys):
        path = impl_file(nested(kind, MAX_NESTING))
        expected = {
            "parentheses": str(MAX_NESTING + 1),
            "brackets": "(" * MAX_NESTING + "1" + ",)" * MAX_NESTING,
        }.get(kind, "1")
        assert main(["run", path]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == expected
        assert main(["check", path]) == 0
        assert main(["lint", path]) == 0

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 5000])
    def test_deeper_is_a_parse_error(self, kind, depth, impl_file, capsys):
        path = impl_file(nested(kind, depth))
        for command in ("run", "check"):
            assert main([command, path]) == 2
            err = capsys.readouterr().err
            assert f"error: parse: nesting deeper than {MAX_NESTING} levels" in err
            assert "Traceback" not in err
        assert main(["lint", path]) == 1
        assert "IC0102" in capsys.readouterr().out

    def test_error_spans_the_opening_token(self, kind):
        text = nested(kind, MAX_NESTING + 1)
        with pytest.raises(ParseError) as excinfo:
            parse_program(text)
        opener = NESTINGS[kind][3]
        if kind == "lambdas":
            opener = "\\"
        span = excinfo.value.span
        assert excinfo.value.code == "IC0102"
        assert (span.line, span.end_column - span.column) == (1, len(opener))
        assert text[span.column - 1 : span.end_column - 1] == opener


def test_type_nesting_is_capped():
    deep = "[" * (MAX_NESTING + 1) + "Int" + "]" * (MAX_NESTING + 1)
    with pytest.raises(ParseError, match="nesting deeper"):
        parse_program(f"let x : {deep} = [] in 1")


def test_unicode_digit_is_a_lex_error(impl_file, capsys):
    assert main(["run", impl_file("²\n")]) == 2
    err = capsys.readouterr().err
    assert "unexpected character '²' at 1:1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1, 5000])
def test_core_syntax_is_capped_too(depth, impl_file, capsys):
    path = impl_file("1 + (" * depth + "1" + ")" * depth)
    if depth == MAX_NESTING:
        assert main(["run", "--core", path]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == str(depth + 1)
    else:
        assert main(["run", "--core", path]) == 2
        assert "nesting deeper" in capsys.readouterr().err


#: Flat sequences: not nesting, so not capped, but as deep as nesting
#: for the recursive stages after the parser (IC0405).
FLAT = {
    "plus": lambda n: " + ".join(["1"] * n),
    "defs": lambda n: "".join(f"def x{i} : Int = 1;\n" for i in range(n)) + "x0",
}


@pytest.mark.parametrize("kind", sorted(FLAT))
class TestFlatSequences:
    def test_cli_reports_one_coded_error(self, kind, impl_file, capsys):
        path = impl_file(FLAT[kind](5000))
        for command in ("run", "check"):
            assert main([command, path]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: stack_depth: program too deep"), err
            assert "Traceback" not in err
        assert main(["lint", path]) == 1
        assert "error[IC0405]: program too deep" in capsys.readouterr().out

    def test_service_answers_a_typed_error(self, kind):
        from repro.service.server import ResolutionService

        service = ResolutionService(workers=1)
        try:
            assert service.handle_sync(
                {"id": 1, "op": "session/new", "params": {"name": "s"}}
            )["ok"]
            for op in ("run_source", "typecheck"):
                response = service.handle_sync(
                    {
                        "id": 2,
                        "op": op,
                        "params": {"session": "s", "program": FLAT[kind](5000)},
                    }
                )
                error = response["error"]
                assert error["code"] == "type_error", error
                assert error["details"] == {"error": "StackDepthError"}
            linted = service.handle_sync(
                {
                    "id": 2,
                    "op": "lint",
                    "params": {"session": "s", "program": FLAT[kind](5000)},
                }
            )["result"]
            assert [d["code"] for d in linted["diagnostics"]] == ["IC0405"]
            # The service keeps serving.
            assert service.handle_sync(
                {
                    "id": 3,
                    "op": "run_source",
                    "params": {"session": "s", "program": FLAT[kind](2000)},
                }
            )["ok"]
        finally:
            service.shutdown()
