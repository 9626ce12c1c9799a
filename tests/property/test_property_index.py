"""Differential property tests: indexed lookup == naive frame scan.

Trie indexing is a pure pruning optimisation; for every environment
(including polymorphic, overlapping and variable-headed rules), every
query and every overlap policy, production ``lookup`` / ``lookup_all``
must produce the same results -- or the same failures with the same
messages -- as the naive reference scan
(:class:`repro.fuzz.reference.NaiveEnv`).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.env import ImplicitEnv, OverlapPolicy
from repro.core.subst import subst_type
from repro.core.types import TVar, promote, rule
from repro.errors import ImplicitCalculusError
from repro.fuzz.reference import NaiveEnv

from .strategies import rule_types, simple_types, tvar_name


@st.composite
def random_environments(draw):
    """Environments of arbitrary (possibly overlapping) rules, plus a
    flex-headed rule now and then, and a few interesting queries."""
    env = ImplicitEnv.empty()
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        frame = [draw(rule_types()) for _ in range(draw(st.integers(1, 3)))]
        if draw(st.booleans()):
            name = draw(tvar_name)
            frame.append(rule(TVar(name), [draw(simple_types())], [name]))
        env = env.push(frame)
        rules.extend(frame)
    queries = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            # An instance of some rule's head: likely to match (perhaps
            # several rules, exercising the overlap paths).
            tvars, _, head = promote(draw(st.sampled_from(rules)))
            theta = {v: draw(simple_types()) for v in tvars}
            queries.append(subst_type(theta, head))
        else:
            queries.append(draw(simple_types()))
    return env, queries


def _outcome(thunk):
    """Either ('ok', result) or ('fail', exception type, message)."""
    try:
        return ("ok", thunk())
    except ImplicitCalculusError as exc:
        return ("fail", type(exc), str(exc))


@settings(max_examples=80, deadline=None)
@given(random_environments(), st.sampled_from(list(OverlapPolicy)))
def test_indexed_lookup_is_observably_equivalent(env_queries, policy):
    env, queries = env_queries
    for tau in queries:
        indexed = _outcome(lambda: env.lookup(tau, policy))
        naive = _outcome(lambda: NaiveEnv.of(env).lookup(tau, policy))
        assert indexed == naive
        if indexed[0] == "ok":
            # Same entry object, not merely an equal one: the winning
            # rule's payload identity matters to the elaborator.
            assert indexed[1].entry is naive[1].entry


@settings(max_examples=80, deadline=None)
@given(random_environments())
def test_indexed_lookup_all_enumerates_identically(env_queries):
    env, queries = env_queries
    for tau in queries:
        indexed = _outcome(lambda: list(env.lookup_all(tau)))
        naive = _outcome(lambda: list(NaiveEnv.of(env).lookup_all(tau)))
        assert indexed == naive
        if indexed[0] == "ok":
            assert [m.entry for m in indexed[1]] == [m.entry for m in naive[1]]
