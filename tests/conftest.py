"""Shared fixtures: the paper's environments and programs by experiment id."""

from __future__ import annotations

import pytest

from repro.core import (
    BOOL,
    CHAR,
    INT,
    If,
    ImplicitEnv,
    IntLit,
    BoolLit,
    Lam,
    PairE,
    TFun,
    TVar,
    Var,
    pair,
    rule,
)
from repro.core.builders import add, ask, crule, implicit, neg


@pytest.fixture(autouse=True)
def _reset_global_state():
    """Restore every process-global toggle after each test.

    Fuzz/property tests (and any test exercising the CLI) install a
    stats recorder in the thread-local slot, inject harness faults, or
    corrupt the compiled tries; this fixture guarantees none of that
    configuration leaks into later tests, whatever order they run in.
    """
    from repro.core.compile_env import set_trie_corruption
    from repro.core.resolution import set_corec_guard
    from repro.fuzz.oracles import set_fault
    from repro.obs.stats import _SLOT
    from repro.service.wire import set_wire_corruption
    from repro.store.log import set_crc_bypass
    from repro.subtyping import set_conjunct_drop

    yield
    set_trie_corruption(False)
    set_wire_corruption(False)
    set_fault(None)
    set_crc_bypass(False)
    set_corec_guard(True)
    set_conjunct_drop(False)
    _SLOT.stats = None


@pytest.fixture
def pair_env() -> ImplicitEnv:
    """E3's environment: ``Int; forall a. {a} => a * a``."""
    return ImplicitEnv.empty().push(
        [INT, rule(pair(TVar("a"), TVar("a")), [TVar("a")], ["a"])]
    )


@pytest.fixture
def partial_env() -> ImplicitEnv:
    """E3's partial-resolution environment:
    ``Bool; forall a. {Bool, a} => a * a``."""
    return ImplicitEnv.empty().push(
        [BOOL, rule(pair(TVar("a"), TVar("a")), [BOOL, TVar("a")], ["a"])]
    )


@pytest.fixture
def backtracking_env() -> ImplicitEnv:
    """The 'semantic resolution' environment:
    ``Char; {Char} => Int; {Bool} => Int`` (three stacked scopes)."""
    return (
        ImplicitEnv.empty()
        .push([CHAR])
        .push([rule(INT, [CHAR])])
        .push([rule(INT, [BOOL])])
    )


# -- Paper programs (overview section), built with the core DSL -------------


def program_simple_implicit():
    """``implicit {1, True} in (?Int + 1, not ?Bool)`` == (2, False)."""
    body = PairE(add(ask(INT), IntLit(1)), neg(ask(BOOL)))
    return implicit([IntLit(1), BoolLit(True)], body, pair(INT, BOOL))


def program_higher_order():
    """``implicit {3, {Int}=>Int*Int rule} in ?(Int*Int)`` == (3, 4)."""
    rho = rule(pair(INT, INT), [INT])
    r = crule(rho, PairE(ask(INT), add(ask(INT), IntLit(1))))
    return implicit([IntLit(3), (r, rho)], ask(pair(INT, INT)), pair(INT, INT))


def polypair_rule():
    a = TVar("a")
    rho = rule(pair(a, a), [a], ["a"])
    return crule(rho, PairE(ask(a), ask(a))), rho


def program_polymorphic():
    """Returns ((3,3),(True,True))."""
    a = TVar("a")
    poly, rho = polypair_rule()
    return implicit(
        [IntLit(3), BoolLit(True), (poly, rho)],
        PairE(ask(pair(INT, INT)), ask(pair(BOOL, BOOL))),
        pair(pair(INT, INT), pair(BOOL, BOOL)),
    )


def program_combined():
    """Higher-order + polymorphic: ((3,3),(3,3))."""
    poly, rho = polypair_rule()
    result = pair(pair(INT, INT), pair(INT, INT))
    return implicit([IntLit(3), (poly, rho)], ask(result), result)


def program_nested_scoping():
    """Nested scoping returns 2, not 1."""
    inner_rule = crule(rule(INT, [BOOL]), If(ask(BOOL), IntLit(2), IntLit(0)))
    inner = implicit(
        [BoolLit(True), (inner_rule, rule(INT, [BOOL]))], ask(INT), INT
    )
    return implicit([IntLit(1)], inner, INT)


def program_overlap(identity_inner: bool):
    """The two overlap programs: returns 2 (inc inner) or 1 (id inner)."""
    a = TVar("a")
    id_rho = rule(TFun(a, a), [], ["a"])
    id_rule = (crule(id_rho, Lam("x", a, Var("x"))), id_rho)
    inc_rule = (Lam("n", INT, add(Var("n"), IntLit(1))), TFun(INT, INT))
    from repro.core import App

    query = App(ask(TFun(INT, INT)), IntLit(1))
    if identity_inner:
        return implicit([inc_rule], implicit([id_rule], query, INT), INT)
    return implicit([id_rule], implicit([inc_rule], query, INT), INT)


OVERVIEW_PROGRAMS = {
    "simple_implicit": (program_simple_implicit, (2, False)),
    "higher_order": (program_higher_order, (3, 4)),
    "polymorphic": (program_polymorphic, ((3, 3), (True, True))),
    "combined": (program_combined, ((3, 3), (3, 3))),
    "nested_scoping": (program_nested_scoping, 2),
    "overlap_inc_inner": (lambda: program_overlap(False), 2),
    "overlap_id_inner": (lambda: program_overlap(True), 1),
}


@pytest.fixture(params=sorted(OVERVIEW_PROGRAMS))
def overview_program(request):
    build, expected = OVERVIEW_PROGRAMS[request.param]
    return request.param, build(), expected
