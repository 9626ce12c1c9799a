"""Unit tests for elaboration (Fig. 2): type translation and evidence."""

import pytest

from repro.errors import TypecheckError
from repro.core.builders import ask, crule, implicit, with_
from repro.core.terms import BoolLit, IntLit, PairE, InterfaceDecl, Signature
from repro.core.types import (
    BOOL,
    INT,
    STRING,
    TFun,
    TVar,
    pair,
    rule,
)
from repro.elaborate.translate import elaborate
from repro.elaborate.types import translate_signature, translate_type
from repro.systemf.ast import (
    FForall,
    FLam,
    FTFun,
    FTVar,
    FTyLam,
    F_BOOL,
    F_INT,
    f_forall,
    f_fun,
    ftypes_eq,
    f_pair,
)
from repro.systemf.eval import feval
from repro.systemf.typecheck import ftypecheck

A = TVar("a")
FA = FTVar("a")


class TestTypeTranslation:
    def test_base(self):
        assert translate_type(INT) == F_INT
        assert translate_type(TFun(INT, BOOL)) == FTFun(F_INT, F_BOOL)
        assert translate_type(pair(INT, BOOL)) == f_pair(F_INT, F_BOOL)

    def test_rule_with_context(self):
        rho = rule(INT, [BOOL])
        assert translate_type(rho) == FTFun(F_BOOL, F_INT)

    def test_rule_multi_context_is_curried(self):
        rho = rule(INT, [BOOL, STRING])
        out = translate_type(rho)
        # one argument per context entry, canonically ordered
        assert isinstance(out, FTFun)
        assert isinstance(out.res, FTFun)

    def test_polymorphic_rule(self):
        rho = rule(pair(A, A), [A], ["a"])
        expected = f_forall(["a"], FTFun(FA, f_pair(FA, FA)))
        assert ftypes_eq(translate_type(rho), expected)

    def test_empty_context_quantified(self):
        rho = rule(TFun(A, A), [], ["a"])
        assert ftypes_eq(translate_type(rho), FForall("a", FTFun(FA, FA)))

    def test_higher_order_context(self):
        # |{{Int}=>Int} => Bool| = (Int -> Int) -> Bool
        rho = rule(BOOL, [rule(INT, [INT])])
        assert translate_type(rho) == FTFun(FTFun(F_INT, F_INT), F_BOOL)

    def test_canonical_context_makes_translation_unique(self):
        r1 = rule(INT, [BOOL, STRING])
        r2 = rule(INT, [STRING, BOOL])
        assert translate_type(r1) == translate_type(r2)

    def test_translation_is_memoized_per_interned_type(self):
        # |.| runs once per hash-consed type; its uses share one image,
        # which ftypes_eq recognises by identity.
        rho = rule(pair(A, INT), [TFun(A, BOOL)], ["a"])
        image = translate_type(rho)
        assert translate_type(rule(pair(A, INT), [TFun(A, BOOL)], ["a"])) is image
        assert translate_type(pair(A, INT)) is translate_type(pair(A, INT))
        assert ftypes_eq(image, image)

    def test_signature_translation(self):
        sig = Signature(
            [InterfaceDecl("Eq", ("a",), (("eq", TFun(A, TFun(A, BOOL))),))]
        )
        fsig = translate_signature(sig)
        decl = fsig.get("Eq")
        assert decl is not None
        assert decl.field_type("eq") == f_fun(FA, FA, F_BOOL)


class TestEvidenceShapes:
    def test_rule_abs_becomes_lambda(self):
        rho = rule(INT, [BOOL])
        _, target = elaborate(crule(rho, IntLit(1)))
        assert isinstance(target, FLam)
        assert target.var_type == F_BOOL

    def test_polymorphic_rule_becomes_tylam(self):
        rho = rule(pair(A, A), [A], ["a"])
        _, target = elaborate(crule(rho, PairE(ask(A), ask(A))))
        assert isinstance(target, FTyLam)

    def test_query_evidence_applies_arguments(self):
        program = implicit([IntLit(3)], ask(INT), INT)
        tau, target = elaborate(program)
        assert tau == INT
        assert feval(target) == 3

    def test_elaborated_programs_typecheck(self, overview_program):
        name, program, expected = overview_program
        tau, target = elaborate(program)
        assert ftypes_eq(ftypecheck(target), translate_type(tau))
        assert feval(target) == expected

    def test_unresolvable_query_is_static_error(self):
        with pytest.raises(TypecheckError):
            elaborate(ask(INT))

    def test_partial_resolution_evidence(self):
        # Bool; forall a.{Bool,a}=>a*a answering {Int}=>Int*Int yields a
        # function |Int| -> |Int*Int| closed over the resolved Bool.
        inner = crule(
            rule(pair(A, A), [BOOL, A], ["a"]),
            PairE(ask(A), ask(A)),
        )
        program = implicit(
            [BoolLit(True), (inner, rule(pair(A, A), [BOOL, A], ["a"]))],
            ask(rule(pair(INT, INT), [INT])),
            rule(pair(INT, INT), [INT]),
        )
        tau, target = elaborate(program)
        ftype = ftypecheck(target)
        assert ftypes_eq(ftype, FTFun(F_INT, f_pair(F_INT, F_INT)))
        evidence = feval(target)
        from repro.systemf.eval import apply_value

        assert apply_value(evidence, 9) == (9, 9)


class TestRecursiveEvidence:
    """Corecursive derivations elaborate to ``fix``-bound evidence."""

    def _program(self):
        from repro.core.builders import implicit
        from repro.core.types import list_of

        # implicit { 1 : Int, |forall a.{a,[a]}=>[a]|.?[a] } in ?[Int]
        rho = rule(list_of(A), [A, list_of(A)], ["a"])
        from repro.core.builders import ask, crule

        return implicit(
            [(IntLit(1), INT), (crule(rho, ask(list_of(A))), rho)],
            ask(list_of(INT)),
            list_of(INT),
        )

    def _elaborate_corecursively(self):
        from repro.core.resolution import ResolutionStrategy, Resolver

        return elaborate(
            self._program(),
            resolver=Resolver(strategy=ResolutionStrategy.CORECURSIVE),
        )

    def test_default_strategy_diverges(self):
        from repro.errors import ResolutionDivergenceError

        with pytest.raises(ResolutionDivergenceError):
            elaborate(self._program())

    def test_cycle_elaborates_to_a_fix_binder(self):
        from repro.core.types import list_of
        from repro.elaborate.types import translate_type
        from repro.systemf.ast import FFix, pretty_fexpr

        tau, target = self._elaborate_corecursively()
        assert tau == list_of(INT)

        fixes = []
        stack = [target]
        while stack:
            node = stack.pop()
            if isinstance(node, FFix):
                fixes.append(node)
            for field in getattr(node, "__dataclass_fields__", {}):
                value = getattr(node, field)
                for child in value if isinstance(value, tuple) else (value,):
                    if hasattr(child, "__dataclass_fields__"):
                        stack.append(child)
        assert len(fixes) == 1
        assert ftypes_eq(fixes[0].var_type, translate_type(list_of(INT)))
        assert f"fix {fixes[0].var}" in pretty_fexpr(target)

    def test_fix_bearing_term_typechecks(self):
        from repro.elaborate.types import translate_type

        tau, target = self._elaborate_corecursively()
        assert ftypes_eq(ftypecheck(target), translate_type(tau))
