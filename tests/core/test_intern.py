"""Hash-consed types: interning, cached structural metadata, slots.

``repro.core.types`` interns every type node, so structurally equal
constructions yield the *same object*, and each node carries its hash,
free-variable set, size and (lazily) canonical key.  These tests pin
down the identity guarantees, check the cached metadata against
independent recomputation, and exercise the iterative traversals on
types far deeper than the interpreter's recursion limit would allow a
naive recursive implementation to handle.
"""

import copy
import pickle

import pytest

from repro.core.types import (
    BOOL,
    INT,
    STRING,
    RuleType,
    TCon,
    TFun,
    TVar,
    canonical_key,
    ftv,
    pair,
    rule,
    subterms,
    type_size,
    types_alpha_eq,
)
from repro.logic import terms as lt


class TestInterning:
    def test_equal_constructions_are_identical(self):
        assert TVar("a") is TVar("a")
        assert TCon("Int") is TCon("Int")
        assert TCon("Int") is INT
        assert TFun(INT, BOOL) is TFun(INT, BOOL)
        assert pair(INT, TVar("a")) is pair(INT, TVar("a"))
        assert rule(INT, [BOOL]) is rule(INT, [BOOL])

    def test_distinct_constructions_are_distinct(self):
        assert TVar("a") is not TVar("b")
        assert TFun(INT, BOOL) is not TFun(BOOL, INT)
        assert rule(INT, [BOOL]) is not rule(INT, [STRING])

    def test_alpha_variants_are_equal_and_hash_alike(self):
        a, b = TVar("a"), TVar("b")
        r1 = rule(pair(a, a), [a], ["a"])
        r2 = rule(pair(b, b), [b], ["b"])
        assert r1 == r2
        assert hash(r1) == hash(r2)
        assert types_alpha_eq(r1, r2)
        assert canonical_key(r1) == canonical_key(r2)

    def test_pickle_and_copy_round_trip_through_the_intern_table(self):
        for tau in (TVar("a"), TFun(INT, BOOL), rule(pair(TVar("a"), INT), [TVar("a")], ["a"])):
            assert pickle.loads(pickle.dumps(tau)) is tau
            assert copy.deepcopy(tau) is tau

    def test_nodes_are_immutable(self):
        for tau in (TVar("a"), INT, TFun(INT, BOOL), rule(INT, [BOOL])):
            with pytest.raises(AttributeError):
                tau.name = "x"
            with pytest.raises(AttributeError):
                tau.anything = 1


class TestCachedMetadata:
    def _naive_ftv(self, tau):
        match tau:
            case TVar(name):
                return {name}
            case TCon(_, args):
                return set().union(*(self._naive_ftv(a) for a in args)) if args else set()
            case TFun(arg, res):
                return self._naive_ftv(arg) | self._naive_ftv(res)
            case RuleType():
                inner = self._naive_ftv(tau.head)
                for rho in tau.context:
                    inner |= self._naive_ftv(rho)
                return inner - set(tau.tvars)

    def _naive_size(self, tau):
        match tau:
            case TVar(_):
                return 1
            case TCon(_, args):
                return 1 + sum(self._naive_size(a) for a in args)
            case TFun(arg, res):
                return 1 + self._naive_size(arg) + self._naive_size(res)
            case RuleType():
                return 1 + self._naive_size(tau.head) + sum(
                    self._naive_size(r) for r in tau.context
                )

    @pytest.mark.parametrize(
        "tau",
        [
            INT,
            TVar("x"),
            TFun(TVar("a"), pair(INT, TVar("b"))),
            rule(pair(TVar("a"), TVar("a")), [TVar("a"), BOOL], ["a"]),
            rule(rule(TVar("a"), [TVar("b")], ["a"]), [TVar("b")], ["b"]),
        ],
    )
    def test_cached_ftv_and_size_match_recomputation(self, tau):
        assert ftv(tau) == frozenset(self._naive_ftv(tau))
        assert type_size(tau) == self._naive_size(tau)

    @pytest.mark.parametrize(
        "tau",
        [
            INT,
            TVar("x"),
            TFun(TVar("a"), pair(INT, TVar("b"))),
            rule(pair(TVar("a"), TVar("a")), [TVar("a"), BOOL], ["a"]),
        ],
    )
    def test_printed_text_is_cached(self, tau):
        from repro.core.pretty import pretty_type

        text = str(tau)
        assert text == pretty_type(tau)
        assert str(tau) is text

    def test_subterms_is_preorder(self):
        tau = TFun(INT, pair(TVar("a"), BOOL))
        assert list(subterms(tau)) == [
            tau,
            INT,
            pair(TVar("a"), BOOL),
            TVar("a"),
            BOOL,
        ]


DEEP = 5000


@pytest.fixture(scope="module")
def deep_type():
    tau = INT
    for _ in range(DEEP):
        tau = TFun(tau, INT)
    return tau


class TestDeepTypes:
    """Structural traversals must be iterative: ~5k-deep types used to
    blow the recursion limit."""

    def test_construction_and_cached_metadata(self, deep_type):
        assert type_size(deep_type) == 2 * DEEP + 1
        assert ftv(deep_type) == frozenset()
        assert isinstance(hash(deep_type), int)

    def test_subterms_terminates(self, deep_type):
        assert sum(1 for _ in subterms(deep_type)) == 2 * DEEP + 1

    def test_canonical_key_terminates(self, deep_type):
        key = canonical_key(deep_type)
        assert isinstance(key, tuple)

    def test_alpha_eq_on_shared_structure(self, deep_type):
        assert types_alpha_eq(deep_type, deep_type)

    def test_deep_open_type_ftv(self):
        tau = TVar("a")
        for _ in range(DEEP):
            tau = pair(tau, TVar("b"))
        assert ftv(tau) == frozenset({"a", "b"})


class TestSlotsAudit:
    """No ``__dict__`` on hot-path nodes: core types and logic terms."""

    CORE_NODES = [
        TVar("a"),
        TCon("X", (INT,)),
        TFun(INT, BOOL),
        rule(pair(TVar("a"), INT), [TVar("a")], ["a"]),
    ]
    LOGIC_NODES = [
        lt.Var("x"),
        lt.Struct("f", (lt.Var("x"),)),
        lt.Atom(lt.Struct("p")),
        lt.Conj((lt.Atom(lt.Struct("p")),)),
        lt.Implies((lt.Clause((), (), lt.Struct("p")),), lt.Atom(lt.Struct("q"))),
        lt.ForallG(("x",), lt.Atom(lt.Struct("p"))),
        lt.Clause(("x",), (), lt.Struct("p", (lt.Var("x"),))),
    ]

    @pytest.mark.parametrize("node", CORE_NODES + LOGIC_NODES, ids=repr)
    def test_no_instance_dict_and_no_attribute_injection(self, node):
        assert not hasattr(node, "__dict__")
        # Injecting a non-field attribute must fail.  Frozen+slots
        # dataclasses on CPython 3.11 raise TypeError here instead of
        # AttributeError (the generated __setattr__'s super(cls, self)
        # call refers to the pre-slots class); either way, no attribute
        # lands.
        with pytest.raises((AttributeError, TypeError)):
            node.injected = 1
        assert not hasattr(node, "injected")

    @pytest.mark.parametrize("node", LOGIC_NODES, ids=repr)
    def test_logic_nodes_are_frozen(self, node):
        first_field = next(iter(node.__dataclass_fields__))
        with pytest.raises(AttributeError):  # FrozenInstanceError
            setattr(node, first_field, None)
