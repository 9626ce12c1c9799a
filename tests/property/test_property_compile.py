"""Differential property tests: compiled matchers == the naive scan.

The compiled discrimination-trie path (:mod:`repro.core.compile_env`)
must be observably equivalent to the naive reference scan on *every*
environment, query and overlap policy -- same results carrying the very
same entry objects, or the same failures with byte-identical messages
-- on a cold scan and on its memoized replay alike.  On top of the
equivalence, the compiled artifact itself must be deterministic (equal
fingerprints yield byte-identical :func:`trie_key` serializations,
whatever the binder names or construction history) and scope-correct
(push/pop can never surface a stale artifact, because artifacts are
owned by the immutable environment they were compiled for).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compile_env import trie_key
from repro.core.env import ImplicitEnv, OverlapPolicy
from repro.core.subst import subst_type
from repro.core.types import TVar, promote, rule
from repro.fuzz.reference import NaiveEnv

from .strategies import simple_types
from .test_property_index import _outcome, random_environments


@settings(max_examples=80, deadline=None)
@given(random_environments(), st.sampled_from(list(OverlapPolicy)))
def test_compiled_lookup_is_observably_equivalent(env_queries, policy):
    env, queries = env_queries
    for tau in queries:
        compiled = _outcome(lambda: env.lookup(tau, policy))
        replayed = _outcome(lambda: env.lookup(tau, policy))  # scan memo
        interpreted = _outcome(lambda: NaiveEnv.of(env).lookup(tau, policy))
        assert compiled == interpreted
        assert replayed == interpreted
        if compiled[0] == "ok":
            # Same entry object, not merely an equal one: the winning
            # rule's payload identity matters to the elaborator.
            assert compiled[1].entry is interpreted[1].entry


@settings(max_examples=80, deadline=None)
@given(random_environments())
def test_compiled_lookup_all_enumerates_identically(env_queries):
    env, queries = env_queries
    for tau in queries:
        compiled = _outcome(lambda: list(env.lookup_all(tau)))
        interpreted = _outcome(lambda: list(NaiveEnv.of(env).lookup_all(tau)))
        assert compiled == interpreted
        if compiled[0] == "ok":
            assert [m.entry for m in compiled[1]] == [
                m.entry for m in interpreted[1]
            ]


def _rename_binders(rho, suffix: str):
    """An alpha-variant of ``rho`` with every quantified variable renamed."""
    tvars, context, head = promote(rho)
    renaming = {v: TVar(v + suffix) for v in tvars}
    return rule(
        subst_type(renaming, head),
        [subst_type(renaming, c) for c in context],
        [v + suffix for v in tvars],
    )


@settings(max_examples=60, deadline=None)
@given(random_environments())
def test_equal_fingerprints_give_byte_identical_trie_keys(env_queries):
    env, _ = env_queries
    renamed = ImplicitEnv.empty()
    for frame in env.frames():
        renamed = renamed.push(
            [_rename_binders(entry.rho, "_zz") for entry in frame]
        )
    # Binder names do not enter the structural fingerprint...
    assert renamed.fingerprint() == env.fingerprint()
    # ...and must not enter the compiled artifact either.
    assert trie_key(renamed) == trie_key(env)


@settings(max_examples=60, deadline=None)
@given(random_environments())
def test_rebuilt_environments_share_trie_keys(env_queries):
    env, _ = env_queries
    rebuilt = ImplicitEnv.empty()
    for frame in env.frames():
        rebuilt = rebuilt.push([entry.rho for entry in frame])
    assert rebuilt.fingerprint() == env.fingerprint()
    assert trie_key(rebuilt) == trie_key(env)


@settings(max_examples=60, deadline=None)
@given(random_environments(), simple_types())
def test_push_pop_never_sees_stale_artifacts(env_queries, extra):
    """Compiling a child environment must not disturb the parent's
    artifact, and resuming the parent after a push ("popping") must
    re-yield exactly the pre-push behaviour."""
    env, queries = env_queries
    tau = queries[0]
    before = _outcome(lambda: env.lookup(tau))
    # Push a scope that definitely intercepts the query (plus noise,
    # unless the noise would overlap the interceptor within the frame).
    child = env.push([tau] if extra is tau else [tau, extra])
    hit = child.lookup(tau)
    assert hit.entry is child.frames()[-1][0]
    # Pop back: the parent environment is unchanged and its compiled
    # artifact still answers exactly as it did before the push.
    after = _outcome(lambda: env.lookup(tau))
    assert after == before
    if before[0] == "ok":
        assert after[1].entry is before[1].entry