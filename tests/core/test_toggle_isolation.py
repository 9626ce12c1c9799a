"""Regression: global test hooks flipped inside one test cannot leak out.

The engine keeps several pieces of process-global configuration, all of
them test or fault-injection hooks: the fuzz harness's fault injection,
the compile module's trie corruption, and the subtyping backend's
conjunct-drop fault (plus the thread-local stats slot).  The autouse
``_reset_global_state`` fixture in ``tests/conftest.py`` must restore
all of them after every test -- otherwise a fuzz or property test could
silently change the semantics (or the counters) of whatever test
happens to run next.

pytest runs tests within a module in definition order, so each
``*_flips_everything`` test below deliberately leaves every hook in its
non-default state, and the immediately following ``*_sees_defaults``
test asserts the fixture cleaned up.  The pairs are duplicated so the
check also holds when a flipped state is the *starting* point of the
next flip.  Each ``*_sees_defaults`` test also checks that production
lookup and the naive reference scan agree again once the hooks are
reset.
"""

from __future__ import annotations

from repro.core import compile_env
from repro.core.env import ImplicitEnv
from repro.core.types import INT
from repro.fuzz import oracles
from repro.fuzz.oracles import set_fault
from repro.fuzz.reference import NaiveEnv
from repro.obs.stats import _SLOT, ResolutionStats
from repro.subtyping import intersection, set_conjunct_drop


def _flip_everything() -> None:
    set_fault("compiled")
    compile_env.set_trie_corruption(True)
    set_conjunct_drop(True)
    _SLOT.stats = ResolutionStats()


def _assert_defaults() -> None:
    assert oracles._FAULT is None
    assert compile_env._CORRUPT is False
    assert intersection._DROP is False
    assert getattr(_SLOT, "stats", None) is None
    env = ImplicitEnv.empty().push([INT])
    assert env.lookup(INT).entry is NaiveEnv.of(env).lookup(INT).entry


def test_a_flips_everything():
    _flip_everything()
    assert oracles._FAULT == "compiled"
    assert compile_env._CORRUPT is True
    assert intersection._DROP is True
    assert _SLOT.stats is not None


def test_b_sees_defaults():
    _assert_defaults()


def test_c_flips_everything_again():
    _flip_everything()


def test_d_sees_defaults_again():
    _assert_defaults()
