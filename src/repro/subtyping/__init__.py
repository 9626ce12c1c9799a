"""Intersection-subtyping resolution backend (modus ponens).

The translation of a frozen :class:`~repro.core.env.ImplicitEnv` into an
intersection type lives in :mod:`repro.subtyping.intersection`; the
terminating decision procedure (with checkable derivations) in
:mod:`repro.subtyping.decide`.  The backend is exposed to the rest of
the system as the ``subtyping/check`` service op (both deployments)
and the ``subtyping`` fuzz oracle, which checks that every resolution
success is subtyping-provable.  It is not a resolution strategy: it
only decides, and its answers never change what ``Resolver`` returns.
See docs/RESOLUTION.md for the worked example and docs/TESTING.md for
the oracle's carve-out list.
"""

from .decide import (
    DEFAULT_BUDGET,
    Extend,
    ModusPonens,
    SubtypingNode,
    SubtypingResult,
    SubtypingVerdict,
    check_entailment,
    conjunct_spine,
    decide,
    entails,
)
from .intersection import (
    LOCAL,
    Conjunct,
    IntersectionType,
    conjunct_drop,
    intersection_of_env,
    set_conjunct_drop,
)

__all__ = [
    "DEFAULT_BUDGET",
    "LOCAL",
    "Conjunct",
    "Extend",
    "IntersectionType",
    "ModusPonens",
    "SubtypingNode",
    "SubtypingResult",
    "SubtypingVerdict",
    "check_entailment",
    "conjunct_drop",
    "conjunct_spine",
    "decide",
    "entails",
    "intersection_of_env",
    "set_conjunct_drop",
]
