"""The catalogue of diagnostic codes: the single source of truth.

Codes are grouped in bands mirroring the paper's well-formedness
conditions (sections 3.3-3.4) plus the front end:

========  ==========================================================
IC01xx    lexing / parsing
IC02xx    typing (core, source, System F, kinds, plain resolution)
IC03xx    overlap and coherence
IC04xx    termination, ambiguity and resolution budgets
IC05xx    style warnings (emitted only by ``repro lint``)
IC06xx    persistence (the on-disk derivation store, ``repro cache``)
========  ==========================================================

Most codes correspond to an exception class in :mod:`repro.errors`
(``register_exception_codes`` cross-checks that mapping); the IC05xx
band is lint-only and has no exception counterpart.  ``tests/docs``
asserts that every code here has a ``## ICxxxx`` heading in
``docs/DIAGNOSTICS.md`` and vice versa, so the reference cannot drift.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagnostic import Severity


@dataclass(frozen=True)
class CodeInfo:
    """Metadata for one stable diagnostic code."""

    code: str
    title: str
    severity: Severity
    #: Which pipeline stage / well-formedness condition the band covers.
    category: str


def _error(code: str, title: str, category: str) -> CodeInfo:
    return CodeInfo(code, title, Severity.ERROR, category)


def _warning(code: str, title: str, category: str) -> CodeInfo:
    return CodeInfo(code, title, Severity.WARNING, category)


#: code -> metadata, in documentation order.
CATALOGUE: dict[str, CodeInfo] = {
    info.code: info
    for info in (
        _error("IC0001", "unclassified error", "internal"),
        # -- IC01xx: lexing / parsing -----------------------------------
        _error("IC0101", "lexical error", "parse"),
        _error("IC0102", "syntax error", "parse"),
        # -- IC02xx: typing ---------------------------------------------
        _error("IC0201", "core type error", "typing"),
        _error("IC0202", "source type error", "typing"),
        _error("IC0203", "System F type error", "typing"),
        _error("IC0204", "kind error", "typing"),
        _error("IC0205", "unification failure", "typing"),
        _error("IC0206", "evaluation error", "typing"),
        _error("IC0207", "no matching rule", "typing"),
        _error("IC0208", "resolution failure", "typing"),
        _error("IC0209", "semantic type error", "typing"),
        # -- IC03xx: overlap / coherence --------------------------------
        _error("IC0301", "overlapping rules", "coherence"),
        _error("IC0302", "incoherent program", "coherence"),
        # -- IC04xx: termination / ambiguity / budgets ------------------
        _error("IC0401", "non-terminating rule", "termination"),
        _error("IC0402", "ambiguous rule type", "termination"),
        _error("IC0403", "resolution divergence", "termination"),
        _error("IC0404", "resolution deadline exceeded", "termination"),
        _error("IC0405", "program too deep", "termination"),
        # -- IC05xx: style (lint-only) ----------------------------------
        _warning("IC0501", "unused implicit rule", "style"),
        _warning("IC0502", "shadowed implicit rule", "style"),
        _warning("IC0503", "duplicate implicit name", "style"),
        # -- IC06xx: persistence ----------------------------------------
        _error("IC0601", "persistent store failure", "persistence"),
        _error("IC0602", "store schema mismatch", "persistence"),
        _error("IC0603", "store locked by another process", "persistence"),
        _error("IC0604", "store record corruption", "persistence"),
    )
}


def info_for(code: str) -> CodeInfo:
    """Metadata for ``code`` (unknown codes degrade to IC0001)."""
    return CATALOGUE.get(code, CATALOGUE["IC0001"])


def severity_for(code: str) -> Severity:
    return info_for(code).severity


def exception_code_map() -> dict[str, type]:
    """``code -> exception class`` for every class that carries one.

    Covers :mod:`repro.errors` plus the two stragglers defined next to
    their checkers (:class:`~repro.core.kinds.KindError`,
    :class:`~repro.opsem.semtyping.SemanticTypeError`).  Used by the
    docs contract tests to prove no exception class can introduce a
    code outside the catalogue.
    """
    import inspect

    from .. import errors
    from ..core.kinds import KindError
    from ..opsem.semtyping import SemanticTypeError

    classes = [
        obj
        for _, obj in inspect.getmembers(errors, inspect.isclass)
        if issubclass(obj, errors.ImplicitCalculusError)
    ]
    classes += [KindError, SemanticTypeError]
    return {cls.code: cls for cls in classes}
