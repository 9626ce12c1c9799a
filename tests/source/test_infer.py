"""Unit tests for source-language inference and encoding (Fig. 4)."""

import pytest

from repro.errors import SourceTypeError
from repro.core.terms import App, Lam, Query, RuleAbs, RuleApp, TyApp
from repro.core.typecheck import typecheck
from repro.core.types import BOOL, INT, STRING, TCon, TFun, TVar, list_of, pair, rule
from repro.pipeline import compile_source, run_source
from repro.source.infer import compile_program
from repro.source.parser import parse_program

A = TVar("a")


def compile_text(text):
    return compile_program(parse_program(text))


class TestBasicInference:
    def test_literal(self):
        assert compile_text("42").type == INT

    def test_lambda_parameter_inferred(self):
        compiled = compile_text("(\\x . x + 1) 3")
        assert compiled.type == INT

    def test_unbound_variable(self):
        with pytest.raises(SourceTypeError, match="unbound"):
            compile_text("mystery")

    def test_type_mismatch(self):
        with pytest.raises(SourceTypeError, match="mismatch"):
            compile_text("1 + True")

    def test_infinite_type(self):
        with pytest.raises(SourceTypeError, match="infinite"):
            compile_text("\\x . x x")

    def test_ambiguous_program_rejected(self):
        # `? 42` never determines the query's result type.
        with pytest.raises(SourceTypeError, match="ambiguous"):
            compile_text("implicit showInt in ? 42")

    def test_pair_list_if(self):
        assert compile_text("(1, True)").type == pair(INT, BOOL)
        assert compile_text("[1, 2]").type == list_of(INT)
        assert compile_text("if True then 1 else 2").type == INT


class TestLetAndInstantiation:
    def test_monomorphic_let(self):
        compiled = compile_text("let x : Int = 1 in x + 1")
        assert compiled.type == INT
        typecheck(compiled.expr, signature=compiled.signature)

    def test_polymorphic_let_wraps_rule(self):
        compiled = compile_text(
            "let id : forall a . {} => a -> a = \\x . x in id 3"
        )
        assert compiled.type == INT

    def test_bound_expression_must_match_annotation(self):
        with pytest.raises(SourceTypeError):
            compile_text("let x : Bool = 1 in x")

    def test_let_var_instantiates_per_use(self):
        compiled = compile_text(
            "let id : forall a . {} => a -> a = \\x . x in (id 3, id True)"
        )
        assert compiled.type == pair(INT, BOOL)

    def test_use_emits_type_application_and_queries(self):
        compiled = compile_text(
            "let f : forall a . {a} => a = ? in implicit ltInt in 1"
        )
        # f unused: still compiles; the translation of `let` wraps a rule.
        typecheck(compiled.expr, signature=compiled.signature)

    def test_ambiguous_annotation_rejected(self):
        with pytest.raises(SourceTypeError, match="ambiguous"):
            compile_text("let f : forall a . {a} => Int = 1 in f")

    def test_nested_lets_reusing_tvar_names(self):
        compiled = compile_text(
            """
            let f : forall a . {} => a -> a = \\x . x in
            let g : forall a . {} => a -> a = \\y . f y in
            g 5
            """
        )
        assert compiled.type == INT
        typecheck(compiled.expr, signature=compiled.signature)


class TestImplicitScoping:
    def test_implicit_wraps_rule_application(self):
        compiled = compile_text("implicit ltInt in 1")
        assert isinstance(compiled.expr, RuleApp)

    def test_implicit_requires_bound_names(self):
        with pytest.raises(SourceTypeError, match="unbound"):
            compile_text("implicit nothing in 1")

    def test_resolution_happens_in_core(self):
        compiled = compile_text("implicit showInt in let s : String = ? 1 in s")
        assert compiled.type == STRING
        typecheck(compiled.expr, signature=compiled.signature)

    def test_runtime_value(self):
        assert run_source("implicit showInt in let s : String = ? 1 in s") == "1"


class TestInterfaces:
    EQ = "interface Eq a = { eq : a -> a -> Bool };\n"

    def test_record_inference(self):
        compiled = compile_text(self.EQ + "Eq { eq = primEqInt }")
        assert compiled.type == TCon("Eq", (INT,))

    def test_field_selector_generated(self):
        compiled = compile_text(self.EQ + "\\d . eq d 1 2")
        assert compiled.type == TFun(TCon("Eq", (INT,)), BOOL)

    def test_wrong_fields(self):
        with pytest.raises(SourceTypeError, match="exactly the fields"):
            compile_text(self.EQ + "Eq { wrong = 1 }")

    def test_unknown_interface(self):
        with pytest.raises(SourceTypeError, match="unknown interface"):
            compile_text("Nope { x = 1 }")

    def test_selector_name_collision_with_prim(self):
        with pytest.raises(SourceTypeError, match="collides"):
            compile_text("interface Bad a = { add : a -> a };\n1")

    def test_polymorphic_record_via_annotation(self):
        compiled = compile_text(
            self.EQ
            + "let eqInt : Eq Int = Eq { eq = primEqInt } in eq eqInt 1 1"
        )
        assert compiled.type == BOOL
        assert run_source(
            self.EQ + "let eqInt : Eq Int = Eq { eq = primEqInt } in eq eqInt 1 1"
        )


class TestTranslationWellTypedness:
    """Every compiled program must typecheck in the core calculus."""

    @pytest.mark.parametrize(
        "text",
        [
            "1 + 2 * 3",
            "implicit ltInt in 1",
            "let id : forall a . {} => a -> a = \\x . x in (id 3, id True)",
            "implicit showInt in let s : String = ? 7 in s",
            # NB: `\\x . ? (? x)` would be ambiguous -- the intermediate
            # query's type is unconstrained; a single query is fine.
            "let once : forall a . {a -> a} => a -> a = \\x . ? x in"
            " implicit showInt in 1",
        ],
    )
    def test_core_typechecks(self, text):
        compiled = compile_text(text)
        typecheck(compiled.expr, signature=compiled.signature)


class TestZonk:
    """``zonk_expr`` rewrites solved metavariables in place of rebuilding
    the program: nodes with none keep their identity."""

    def inferencer(self):
        from repro.core.terms import Signature
        from repro.source.infer import SourceInferencer

        return SourceInferencer(Signature(()))

    def test_meta_free_program_is_returned_itself(self):
        from repro.core.terms import IntLit, Var

        program = App(Lam("x", INT, Var("x")), IntLit(1))
        assert self.inferencer().zonk_expr(program) is program

    def test_only_nodes_with_solved_metas_are_rebuilt(self):
        from repro.core.terms import Var

        inferencer = self.inferencer()
        meta = inferencer.fresh_meta()
        inferencer.unify(meta, list_of(INT), "test")
        ground = Lam("y", BOOL, Var("y"))
        out = inferencer.zonk_expr(App(Lam("x", meta, Var("x")), ground))
        assert out.fn.var_type is list_of(INT)
        assert out.arg is ground

    def test_unsolved_meta_is_ambiguous(self):
        from repro.core.terms import Var

        inferencer = self.inferencer()
        with pytest.raises(SourceTypeError, match="ambiguous"):
            inferencer.zonk_expr(Lam("x", inferencer.fresh_meta(), Var("x")))
