"""The naive frame scan: the reference arm of the ``compiled`` oracle.

Production lookup runs through compiled discrimination-trie matchers
(:mod:`repro.core.compile_env`).  This module keeps the definitional
reading of Fig. 1's ``Delta(tau)`` -- innermost frame first, try every
entry of the frame with generic one-way matching, then apply the
overlap policy -- as an :class:`~repro.core.env.ImplicitEnv` subclass,
so a :class:`~repro.core.resolution.Resolver` runs unchanged against it
(``push`` keeps the subclass, which the extending strategies rely on).
It is a test oracle, not a production path: nothing in the engines
constructs one.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..core.compile_env import most_specific_error
from ..core.env import (
    ImplicitEnv,
    LookupResult,
    OverlapPolicy,
    RuleEntry,
    _more_specific,
    _try_match,
    no_match_error,
    overlap_error,
)
from ..core.types import Type
from ..obs import record_lookup


class NaiveEnv(ImplicitEnv):
    """An environment whose lookups scan every entry of every frame."""

    __slots__ = ()

    @staticmethod
    def of(env: ImplicitEnv) -> "NaiveEnv":
        """The same frame stack (same entry objects), scanned naively."""
        return NaiveEnv(env.frames(), env.fingerprint())

    def push(self, entries: Iterable[RuleEntry | Type]) -> "NaiveEnv":
        return NaiveEnv.of(super().push(entries))

    def lookup(
        self, tau: Type, policy: OverlapPolicy = OverlapPolicy.REJECT
    ) -> LookupResult:
        record_lookup()
        for frame in reversed(self.frames()):
            matches = frame_matches(frame, tau)
            if not matches:
                continue
            if len(matches) > 1:
                if policy is OverlapPolicy.REJECT:
                    raise overlap_error(tau, matches)
                return most_specific(matches, tau)
            return matches[0]
        raise no_match_error(tau)

    def lookup_all(self, tau: Type) -> Iterator[LookupResult]:
        record_lookup()
        for frame in reversed(self.frames()):
            yield from frame_matches(frame, tau)


def frame_matches(frame: tuple[RuleEntry, ...], tau: Type) -> list[LookupResult]:
    """Every entry of one frame matching ``tau``, in entry order."""
    found: list[LookupResult] = []
    for entry in frame:
        result = _try_match(entry, tau)
        if result is not None:
            found.append(result)
    return found


def most_specific(matches: list[LookupResult], tau: Type) -> LookupResult:
    """The first match more specific than every other one."""
    for candidate in matches:
        if all(c is candidate or _more_specific(candidate, c) for c in matches):
            return candidate
    raise most_specific_error(tau, matches)
