"""Type syntax of the implicit calculus (paper section 3.1).

The grammar is::

    (simple) types   tau ::= alpha | Int | tau1 -> tau2 | rho
    rule types       rho ::= forall a-bar . {rho-bar} => tau

We generalise the paper's single base type ``Int`` to arbitrary *type
constructors* ``TCon`` so that the examples (pairs, booleans, strings,
lists, interface types of the source language) are expressible without
touching the metatheory: a ``TCon`` behaves exactly like ``Int`` does in
the paper, and its arguments behave like the components of ``tau1 -> tau2``.

Representation choices (documented in DESIGN.md and docs/PERFORMANCE.md):

* A *degenerate* rule type -- no quantifiers and an empty context -- is not
  representable; ``rule(head=tau)`` simply returns ``tau``.  The paper
  identifies ``tau`` with ``forall . {} => tau`` via promotion, so this
  loses nothing and removes the unit-wrapper from the elaboration.
* Rule types compare and hash up to alpha-equivalence: bound variables are
  canonically numbered (de Bruijn indices) before comparison, and contexts
  are stored deduplicated and sorted by canonical key (the paper assumes
  contexts are lexicographically ordered so the type translation is
  unique).
* Types are **hash-consed**: every constructor call goes through a global
  intern table (weak-valued, so unused types are collectable), and each
  node caches its hash, free-variable set, size and context-free canonical
  key *once*.  Structurally equal simple types are therefore the *same*
  object, which makes unification's ``t1 is t2`` fast path, the
  occurs-check, environment fingerprinting and derivation-cache keys O(1)
  on shared structure instead of O(size) re-traversals.
"""

from __future__ import annotations

import threading
import weakref
from typing import Iterable, Iterator

#: Global hash-consing table.  Keys are structural identities (tag, class,
#: fields); values are the canonical instances, held weakly so the table
#: never pins garbage.  Child types inside a key are kept alive by the
#: interned parent itself (it references them through its fields), so the
#: strong key references add no retention beyond the parent's lifetime.
_INTERN: "weakref.WeakValueDictionary[tuple, Type]" = weakref.WeakValueDictionary()

#: Serializes the miss path of interning.  The lock-free ``get`` probe is
#: safe (a stale miss only means taking the slow path), but
#: ``WeakValueDictionary.setdefault`` is check-then-act in pure Python:
#: two racing threads could each observe a miss and each install *their
#: own* instance, breaking the "structurally equal implies identical"
#: invariant that the ``is`` fast paths in unification and the O(1)
#: cached-metadata reads rely on.  All constructors therefore intern
#: under this lock; concurrent constructions of the same type converge on
#: one canonical instance (see ``tests/core/test_thread_safety.py``).
_INTERN_LOCK = threading.Lock()

_EMPTY_FSET: frozenset[str] = frozenset()


class Type:
    """Base class of all implicit-calculus types.

    Instances are immutable, interned and carry cached structural
    metadata in slots (``_hash``, ``_ftv``, ``_size``, ``_key``, plus the
    lazily printed ``_str``); there is no instance ``__dict__``, so
    attribute injection is impossible.
    """

    __slots__ = ()

    def __str__(self) -> str:
        try:
            return self._str
        except AttributeError:  # first print of this node; the slot is unset
            from .pretty import pretty_type

            text = pretty_type(self)
            object.__setattr__(self, "_str", text)
            return text

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"{type(self).__name__} is immutable; cannot set {name}"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"{type(self).__name__} is immutable; cannot delete {name}"
        )


class TVar(Type):
    """A type variable ``alpha``."""

    __slots__ = ("name", "_hash", "_ftv", "_size", "_key", "_str", "__weakref__")
    __match_args__ = ("name",)

    name: str

    def __new__(cls, name: str) -> "TVar":
        key = ("tvar", cls, name)
        self = _INTERN.get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        _set = object.__setattr__
        _set(self, "name", name)
        _set(self, "_ftv", frozenset((name,)))
        _set(self, "_size", 1)
        _set(self, "_key", ("fv", name))
        _set(self, "_hash", hash(("fv", name)))
        with _INTERN_LOCK:
            return _INTERN.setdefault(key, self)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, TVar):
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (type(self), (self.name,))

    def __repr__(self) -> str:
        return f"TVar({self.name!r})"


class TCon(Type):
    """A type constructor applied to arguments.

    ``TCon("Int")`` is the paper's ``Int``; ``TCon("Pair", (a, b))`` is
    ``a * b``; interface types of the source language such as ``Eq a``
    become ``TCon("Eq", (a,))``.
    """

    __slots__ = (
        "name", "args", "_hash", "_ftv", "_size", "_key", "_str", "__weakref__",
    )
    __match_args__ = ("name", "args")

    name: str
    args: tuple[Type, ...]

    def __new__(cls, name: str, args: Iterable[Type] = ()) -> "TCon":
        if not isinstance(args, tuple):
            args = tuple(args)
        key = ("tcon", cls, name, args)
        self = _INTERN.get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        _set = object.__setattr__
        _set(self, "name", name)
        _set(self, "args", args)
        if args:
            ftv_ = frozenset().union(*(a._ftv for a in args))
            size_ = 1 + sum(a._size for a in args)
            key_ = None  # assembled lazily from the children's keys
        else:
            ftv_ = _EMPTY_FSET
            size_ = 1
            key_ = ("con", name, ())
        _set(self, "_ftv", ftv_)
        _set(self, "_size", size_)
        _set(self, "_key", key_)
        _set(self, "_hash", hash(("con", name, args)))
        with _INTERN_LOCK:
            return _INTERN.setdefault(key, self)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, TCon):
            return self.name == other.name and self.args == other.args
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (type(self), (self.name, self.args))

    def __repr__(self) -> str:
        if not self.args:
            return f"TCon({self.name!r})"
        return f"TCon({self.name!r}, {self.args!r})"


class TFun(Type):
    """A function type ``tau1 -> tau2``."""

    __slots__ = ("arg", "res", "_hash", "_ftv", "_size", "_key", "_str", "__weakref__")
    __match_args__ = ("arg", "res")

    arg: Type
    res: Type

    def __new__(cls, arg: Type, res: Type) -> "TFun":
        key = ("tfun", cls, arg, res)
        self = _INTERN.get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        _set = object.__setattr__
        _set(self, "arg", arg)
        _set(self, "res", res)
        _set(self, "_ftv", arg._ftv | res._ftv)
        _set(self, "_size", 1 + arg._size + res._size)
        _set(self, "_key", None)
        _set(self, "_hash", hash(("fun", arg, res)))
        with _INTERN_LOCK:
            return _INTERN.setdefault(key, self)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, TFun):
            return self.arg == other.arg and self.res == other.res
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (type(self), (self.arg, self.res))

    def __repr__(self) -> str:
        return f"TFun({self.arg!r}, {self.res!r})"


class RuleType(Type):
    """A rule type ``forall a-bar . {rho-bar} => tau``.

    * ``tvars`` -- the universally quantified variables (ordered; the order
      matters for explicit type application ``e[tau-bar]``).
    * ``context`` -- the assumed implicit context, a canonically sorted,
      deduplicated tuple of types.  Entries are arbitrary types: a simple
      type ``Int`` stands for the promoted rule ``forall . {} => Int``
      exactly as in the paper's examples.
    * ``head`` -- the right-hand side ``tau`` (itself possibly a rule type,
      enabling higher-order rules).

    Instances are immutable, hashable, and equal up to alpha-renaming of
    ``tvars``.  Do not instantiate degenerate rule types directly; use the
    :func:`rule` smart constructor, which collapses them to their head.
    """

    __slots__ = (
        "tvars", "context", "head",
        "_hash", "_ftv", "_size", "_key", "_str", "__weakref__",
    )
    __match_args__ = ()

    tvars: tuple[str, ...]
    context: tuple[Type, ...]
    head: Type

    def __new__(
        cls, tvars: Iterable[str], context: Iterable[Type], head: Type
    ) -> "RuleType":
        tvars = tuple(tvars)
        context = _canonical_context(context)
        if not tvars and not context:
            raise ValueError(
                "degenerate rule type (no quantifiers, empty context); "
                "use repro.core.types.rule(), which collapses it to its head"
            )
        if len(set(tvars)) != len(tvars):
            raise ValueError(f"duplicate quantified variables in {tvars}")
        key = ("rule", cls, tvars, context, head)
        self = _INTERN.get(key)
        if self is not None:
            return self
        self = object.__new__(cls)
        _set = object.__setattr__
        _set(self, "tvars", tvars)
        _set(self, "context", context)
        _set(self, "head", head)
        ftv_ = head._ftv
        size_ = 1 + head._size
        for rho in context:
            ftv_ = ftv_ | rho._ftv
            size_ += rho._size
        _set(self, "_ftv", ftv_ - frozenset(tvars))
        _set(self, "_size", size_)
        _set(self, "_key", None)
        _set(self, "_hash", None)
        with _INTERN_LOCK:
            return _INTERN.setdefault(key, self)

    def canonical_key(self) -> tuple:
        """A hashable key identifying this type up to alpha-equivalence."""
        key = self._key
        if key is None:
            key = _canonical_key(self, {})
        return key

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, RuleType):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.canonical_key())
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return (type(self), (self.tvars, self.context, self.head))

    def __repr__(self) -> str:
        return f"RuleType({self.tvars!r}, {self.context!r}, {self.head!r})"


def rule(
    head: Type,
    context: Iterable[Type] = (),
    tvars: Iterable[str] = (),
) -> Type:
    """Smart constructor for rule types.

    Collapses the degenerate case: ``rule(Int)`` is just ``Int`` (the paper's
    promotion ``tau  ~  forall . {} => tau`` read right-to-left).
    """
    tvars = tuple(tvars)
    context = tuple(context)
    if not tvars and not context:
        return head
    return RuleType(tvars, context, head)


def promote(tau: Type) -> tuple[tuple[str, ...], tuple[Type, ...], Type]:
    """View any type as a rule type ``(tvars, context, head)``.

    Simple types promote to ``((), (), tau)``; rule types decompose.
    This is the promotion used by the unified resolution rule ``TyRes``.
    """
    if isinstance(tau, RuleType):
        return tau.tvars, tau.context, tau.head
    return (), (), tau


# ---------------------------------------------------------------------------
# Common base types used throughout the library and the examples.
# ---------------------------------------------------------------------------

INT = TCon("Int")
BOOL = TCon("Bool")
STRING = TCon("String")
CHAR = TCon("Char")
UNIT = TCon("Unit")


def pair(a: Type, b: Type) -> TCon:
    """The product type ``a * b`` used pervasively in the paper's examples."""
    return TCon("Pair", (a, b))


def list_of(a: Type) -> TCon:
    """The list type ``[a]`` used by the source-language examples."""
    return TCon("List", (a,))


def fun(*taus: Type) -> Type:
    """Right-associated function type: ``fun(a, b, c)`` is ``a -> (b -> c)``."""
    if not taus:
        raise ValueError("fun() needs at least one type")
    result = taus[-1]
    for tau in reversed(taus[:-1]):
        result = TFun(tau, result)
    return result


# ---------------------------------------------------------------------------
# Free variables, subterms, sizes -- all O(1) off the interned metadata.
# ---------------------------------------------------------------------------


def ftv(tau: Type) -> frozenset[str]:
    """Free type variables of ``tau`` (quantified variables are bound).

    Cached per interned node: computed once bottom-up at construction, so
    this is an O(1) slot read even for very deep types.
    """
    try:
        return tau._ftv
    except AttributeError:
        raise TypeError(f"not a Type: {tau!r}") from None


def subterms(tau: Type) -> Iterator[Type]:
    """Pre-order traversal of all subterms of ``tau`` (including itself).

    Iterative (explicit work stack), so deeply nested types (~thousands of
    constructors) do not hit the interpreter recursion limit.
    """
    stack: list[Type] = [tau]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, TVar):
            continue
        if isinstance(t, TCon):
            for a in reversed(t.args):
                stack.append(a)
        elif isinstance(t, TFun):
            stack.append(t.res)
            stack.append(t.arg)
        elif isinstance(t, RuleType):
            stack.append(t.head)
            for r in reversed(t.context):
                stack.append(r)
        else:
            raise TypeError(f"not a Type: {t!r}")


def type_size(tau: Type) -> int:
    """Number of constructors/variables in ``tau`` (termination measure).

    Cached per interned node (see :func:`ftv`)."""
    try:
        return tau._size
    except AttributeError:
        raise TypeError(f"not a Type: {tau!r}") from None


# ---------------------------------------------------------------------------
# Head-constructor symbols (first-argument indexing).
# ---------------------------------------------------------------------------


def head_symbol(tau: Type, flex: Iterable[str] = _EMPTY_FSET) -> tuple | None:
    """The rigid head-constructor symbol of ``tau``, or ``None`` if flexible.

    One-way matching of a rule head against a query can only succeed when
    the two root constructors agree exactly (unification has no theory:
    distinct constructors, arities, binder counts or context lengths never
    unify), *unless* the head is a variable in ``flex`` (the rule's
    quantified variables), which matches anything.  This is the classic
    first-argument index key of logic programming; the environment and the
    logic engine bucket their rules/clauses by it (see docs/PERFORMANCE.md).
    """
    if isinstance(tau, TVar):
        return None if tau.name in flex else ("var", tau.name)
    if isinstance(tau, TCon):
        return ("con", tau.name, len(tau.args))
    if isinstance(tau, TFun):
        return ("fun",)
    if isinstance(tau, RuleType):
        return ("rule", len(tau.tvars), len(tau.context))
    raise TypeError(f"not a Type: {tau!r}")


# ---------------------------------------------------------------------------
# Canonical (alpha-invariant) keys.
# ---------------------------------------------------------------------------


def _canonical_key(tau: Type, bound: dict[str, int], depth: int | None = None) -> tuple:
    """Structural key with bound variables replaced by de Bruijn indices.

    ``bound`` maps in-scope quantified names to the *level* (count of
    binder variables introduced before them); an occurrence at binder
    depth ``d`` is keyed ``("bv", d - 1 - level)`` -- its de Bruijn index.
    Indices (unlike levels) are independent of the enclosing context, so
    any subterm whose free variables are disjoint from ``bound`` has the
    same key it would have in isolation; such subterms reuse (and
    populate) the per-node cached key instead of being re-traversed.

    The traversal is an explicit work stack, not recursion, so canonical
    keys of very deep types do not overflow the interpreter stack.
    """
    if depth is None:
        depth = len(bound)
    out: list[tuple] = []
    # Work items:  ("eval", type, bound, depth, dest)
    #              ("con"|"fun"|"rule", node, parts, dest, cacheable[, nctx])
    stack: list[tuple] = [("eval", tau, bound, depth, out)]
    while stack:
        item = stack.pop()
        op = item[0]
        if op == "eval":
            _, t, b, d, dest = item
            if isinstance(t, TVar):
                level = b.get(t.name)
                dest.append(("fv", t.name) if level is None else ("bv", d - 1 - level))
                continue
            cacheable = not b or b.keys().isdisjoint(t._ftv)
            if cacheable:
                k = t._key
                if k is not None:
                    dest.append(k)
                    continue
            if isinstance(t, TCon):
                parts: list[tuple] = []
                stack.append(("con", t, parts, dest, cacheable))
                for a in reversed(t.args):
                    stack.append(("eval", a, b, d, parts))
            elif isinstance(t, TFun):
                parts = []
                stack.append(("fun", t, parts, dest, cacheable))
                stack.append(("eval", t.res, b, d, parts))
                stack.append(("eval", t.arg, b, d, parts))
            elif isinstance(t, RuleType):
                inner = dict(b)
                for i, name in enumerate(t.tvars):
                    inner[name] = d + i
                d2 = d + len(t.tvars)
                parts = []
                stack.append(("rule", t, parts, dest, cacheable, len(t.context)))
                stack.append(("eval", t.head, inner, d2, parts))
                for r in reversed(t.context):
                    stack.append(("eval", r, inner, d2, parts))
            else:
                raise TypeError(f"not a Type: {t!r}")
        else:
            if op == "con":
                _, t, parts, dest, cacheable = item
                key = ("con", t.name, tuple(parts))
            elif op == "fun":
                _, t, parts, dest, cacheable = item
                key = ("fun", parts[0], parts[1])
            else:  # "rule"
                _, t, parts, dest, cacheable, nctx = item
                key = ("rule", len(t.tvars), tuple(parts[:nctx]), parts[nctx])
            if cacheable and t._key is None:
                object.__setattr__(t, "_key", key)
            dest.append(key)
    return out[0]


def canonical_key(tau: Type) -> tuple:
    """Public alpha-invariant key for any type (cached per interned node)."""
    try:
        key = tau._key
    except AttributeError:
        raise TypeError(f"not a Type: {tau!r}") from None
    if key is None:
        key = _canonical_key(tau, {})
    return key


def _canonical_context(context: Iterable[Type]) -> tuple[Type, ...]:
    """Deduplicate and sort a context by canonical key.

    The paper assumes "the types in a context are lexicographically
    ordered" so that the type translation ``|.|`` is unique; we realise
    that by sorting on the (total, deterministic) canonical key.
    """
    seen: dict[tuple, Type] = {}
    for rho in context:
        seen.setdefault(canonical_key(rho), rho)
    return tuple(seen[k] for k in sorted(seen, key=_key_sort_token))


def _key_sort_token(key: tuple) -> str:
    return repr(key)


def types_alpha_eq(a: Type, b: Type) -> bool:
    """Alpha-equivalence on arbitrary types."""
    return a is b or canonical_key(a) == canonical_key(b)


def context_contains(context: Iterable[Type], rho: Type) -> bool:
    """Set membership up to alpha-equivalence."""
    key = canonical_key(rho)
    return any(canonical_key(r) == key for r in context)


def context_difference(left: Iterable[Type], right: Iterable[Type]) -> tuple[Type, ...]:
    """``left - right`` as alpha-equivalence sets, preserving left's order.

    This is the operation at the heart of *partial resolution*: the part
    ``rho-bar' - rho-bar`` of a matched rule's context that the query does
    not assume and must therefore be resolved recursively.
    """
    right_keys = {canonical_key(r) for r in right}
    return tuple(r for r in left if canonical_key(r) not in right_keys)
