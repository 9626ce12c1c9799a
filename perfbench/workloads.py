"""Seeded inputs and independent expectations for the three workloads.

Nothing here imports ``repro``: inputs are generated, and the expected
answer to every operation is computed, in plain Python before the
program under test is loaded.  The same seed always gives the same
inputs.

* ``oneshot`` -- source programs in the style of ``examples/programs``
  (Eq over nested pairs, show with comma/space higher-order rules,
  isort with a local comparator override, nested ``implicit`` scopes),
  each with its expected value.
* ``session`` -- one rule environment (64 instance rules in 3 frames
  plus a ground chain) and a Zipf-weighted stream of ``resolve``
  queries over a few-hundred-type pool, a fixed share of them
  unprovided.
* ``churn`` -- a wider, overlapping environment under the
  ``most_specific`` policy, a query pool several times the derivation
  cache, and ``session/push_rules``/``session/pop`` interleaved with
  the queries.

Types are modelled as tuples ``(constructor, *args)``; a ``str`` is a
type variable.  :class:`Model` re-implements lexically scoped rule
lookup with first-order matching, which is all these ground queries
need, so each query's verdict, derivation size and matched rule are
known without asking the program.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Iterator

# ---------------------------------------------------------------------------
# Types, rules and the expectation model
# ---------------------------------------------------------------------------

INT, BOOL, STRING = ("Int",), ("Bool",), ("String",)


def render(t) -> str:
    """The program's concrete syntax for a modelled type."""
    if isinstance(t, str):
        return t
    con, args = t[0], t[1:]
    if con == "List":
        return "[" + render(args[0]) + "]"
    if con == "Pair":
        return "(" + render(args[0]) + ", " + render(args[1]) + ")"
    return " ".join([con] + [_render_arg(a) for a in args])


def _render_arg(t) -> str:
    text = render(t)
    if isinstance(t, tuple) and len(t) > 1 and t[0] not in ("List", "Pair"):
        return "(" + text + ")"
    return text


@dataclass(frozen=True)
class Rule:
    """``forall vars . {context} => head``."""

    vars: tuple[str, ...]
    context: tuple
    head: tuple

    def text(self) -> str:
        body = render(self.head)
        if self.context:
            body = "{" + ", ".join(render(c) for c in self.context) + "} => " + body
        if self.vars:
            body = "forall " + " ".join(self.vars) + " . " + body
        return body


def rule(head, *context, vars=()) -> Rule:
    return Rule(tuple(vars), tuple(context), head)


def _match(pattern, target, subst: dict) -> bool:
    """One-way matching; variables of ``target`` are opaque constants."""
    if isinstance(pattern, str):
        bound = subst.get(pattern)
        if bound is None:
            subst[pattern] = target
            return True
        return bound == target
    if isinstance(target, str) or pattern[0] != target[0] or len(pattern) != len(target):
        return False
    return all(_match(p, t, subst) for p, t in zip(pattern[1:], target[1:]))


def _subst(t, subst: dict):
    if isinstance(t, str):
        return subst[t]
    return (t[0],) + tuple(_subst(a, subst) for a in t[1:])


@dataclass(frozen=True)
class Expect:
    """What a ``resolve`` of one query must answer."""

    ok: bool
    size: int = 0
    matched: str = ""


class Model:
    """Plain-Python lexically scoped resolution over ground queries.

    ``frames`` run outermost first.  The innermost frame holding a
    matching rule decides; within it ``reject`` allows one match and
    ``most_specific`` takes the match whose head is an instance of all
    the others.  Premises resolve against the whole environment.
    """

    def __init__(self, frames: list[list[Rule]], policy: str):
        self.policy = policy
        # Rules keyed on their head's outermost constructor: for these
        # class-style heads that is the class name, so no rule whose
        # key differs can match.
        self.frames = []
        for frame in frames:
            by_key: dict = {}
            for r in frame:
                by_key.setdefault(r.head[0], []).append(r)
            self.frames.append(by_key)
        self._memo: dict = {}

    def expect(self, query) -> Expect:
        found = self._memo.get(query)
        if found is None:
            found = self._memo[query] = self._expect(query)
        return found

    def _expect(self, query) -> Expect:
        winner = self._winner(query)
        if winner is None:
            return Expect(False)
        r, subst = winner
        size = 1
        for premise in r.context:
            sub = self.expect(_subst(premise, subst))
            if not sub.ok:
                return sub
            size += sub.size
        return Expect(True, size, r.text())

    def _winner(self, query):
        for by_key in reversed(self.frames):
            matches = []
            for r in by_key.get(query[0], ()):
                subst: dict = {}
                if _match(r.head, query, subst):
                    matches.append((r, subst))
            if not matches:
                continue
            if len(matches) == 1:
                return matches[0]
            if self.policy == "reject":
                return None
            best = [
                m for m in matches
                if all(_match(o[0].head, m[0].head, {}) for o in matches)
            ]
            return best[0] if len(best) == 1 else None
        return None


def _class_rules(cls: str, cons: tuple[str, ...], *, overlap: bool, catch_all: bool):
    """Instance rules of one class over base types and constructors."""
    c = lambda t: (cls, t)  # noqa: E731 - local shorthand
    rules = [rule(c(INT)), rule(c(BOOL)), rule(c(STRING))]
    if "List" in cons:
        rules.append(rule(c(("List", "a")), c("a"), vars=("a",)))
    if "Pair" in cons:
        rules.append(rule(c(("Pair", "a", "b")), c("a"), c("b"), vars=("a", "b")))
    for con in cons:
        if con in ("List", "Pair"):
            continue
        if con == "Map":
            rules.append(rule(c(("Map", "a", "b")), c("a"), c("b"), vars=("a", "b")))
        else:
            rules.append(rule(c((con, "a")), c("a"), vars=("a",)))
    if overlap:
        rules.append(rule(c(("List", INT))))
        rules.append(rule(c(("Pair", "a", INT)), c("a"), vars=("a",)))
    if catch_all:
        rules.append(rule(c("a"), vars=("a",)))
    return rules


def _random_type(rng: random.Random, cons, leaves, leaf_weights, depth: int):
    """A ground type tree of at most ``depth`` constructor levels."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choices(leaves, leaf_weights)[0]
    con = rng.choice(cons)
    arity = 2 if con in ("Pair", "Map") else 1
    return (con,) + tuple(
        _random_type(rng, cons, leaves, leaf_weights, depth - 1) for _ in range(arity)
    )


def _sized_type(rng: random.Random, cons, leaves, size: int):
    """A ground type tree of exactly ``size`` nodes, leaves included."""
    if size == 1:
        return rng.choice(leaves)
    binary = [c for c in cons if c in ("Pair", "Map")]
    if size >= 3 and rng.random() < 0.5:
        left = rng.randint(1, size - 2)
        return (rng.choice(binary), _sized_type(rng, cons, leaves, left),
                _sized_type(rng, cons, leaves, size - 1 - left))
    unary = [c for c in cons if c not in binary]
    return (rng.choice(unary), _sized_type(rng, cons, leaves, size - 1))


def _replace_leaf(rng: random.Random, t, leaf):
    """``t`` with one of its leaves replaced by ``leaf``."""
    if len(t) == 1:
        return leaf
    i = rng.randrange(1, len(t))
    return t[:i] + (_replace_leaf(rng, t[i], leaf),) + t[i + 1:]


@dataclass(frozen=True)
class Op:
    """One service request and the answer it must get."""

    op: str
    params: dict
    expect: object  # Expect for resolve, the new depth for push/pop


@dataclass
class ServiceInputs:
    """Session set-up plus a deterministic, unbounded request stream."""

    policy: str
    frames: list[list[str]]  # rule texts, outermost frame first
    warmup: list[Op]
    stream: Iterator[Op]  # unbounded


# ---------------------------------------------------------------------------
# session: warm cache, request path
# ---------------------------------------------------------------------------

SESSION_CLASSES = [f"C{k}" for k in range(8)]
SESSION_CONS = ("List", "Pair", "Opt", "Map", "Tree")
CHAIN_DEPTH = 40
SESSION_POOL = 320


def session_inputs(seed: int) -> ServiceInputs:
    rng = random.Random(f"session:{seed}")
    per_class = {
        cls: _class_rules(cls, SESSION_CONS, overlap=False, catch_all=False)
        for cls in SESSION_CLASSES
    }
    chain = [rule(("L0",))] + [
        rule((f"L{i + 1}",), (f"L{i}",)) for i in range(CHAIN_DEPTH)
    ]
    frames = [
        chain + [r for cls in SESSION_CLASSES[0:3] for r in per_class[cls]],
        [r for cls in SESSION_CLASSES[3:6] for r in per_class[cls]],
        [r for cls in SESSION_CLASSES[6:8] for r in per_class[cls]],
    ]
    model = Model(frames, "reject")

    # A pool of queries in popularity order.  The shape of the query at
    # each rank is fixed (its size, or a chain link, or an unprovided
    # ``Char`` leaf no class has an instance for) and only the names in
    # it vary with the seed, so the Zipf-weighted cost of the stream
    # hardly depends on the seed.  Class queries are distinct.
    queries: list = []
    seen: set = set()
    for rank in range(SESSION_POOL):
        while True:
            if rank % 16 == 8:
                q = (f"L{1 + rank * 7 % CHAIN_DEPTH}",)
            else:
                size = 2 + rank * 4 % 9
                leaves = [INT, BOOL, STRING]
                q = (rng.choice(SESSION_CLASSES), _sized_type(rng, SESSION_CONS, leaves, size))
                if rank % 26 == 13:
                    q = (q[0], _replace_leaf(rng, q[1], ("Char",)))
            if q not in seen or rank % 16 == 8:
                break
        seen.add(q)
        queries.append(q)
    expects = [model.expect(q) for q in queries]
    texts = [render(q) for q in queries]

    # Zipf(1.0) popularity over the ranks.
    cum = list(itertools.accumulate(1.0 / (r + 1) for r in range(len(queries))))
    stream_rng = random.Random(f"session-stream:{seed}")

    def stream():
        while True:
            i = bisect.bisect_left(cum, stream_rng.random() * cum[-1])
            yield Op("resolve", {"session": "bench", "type": texts[i]}, expects[i])

    warmup = [
        Op("resolve", {"session": "bench", "type": texts[i]}, expects[i])
        for i in range(len(queries))
    ]
    return ServiceInputs(
        policy="reject",
        frames=[[r.text() for r in f] for f in frames],
        warmup=warmup,
        stream=stream(),
    )


# ---------------------------------------------------------------------------
# churn: cold proof search, cache eviction, push/pop
# ---------------------------------------------------------------------------

CHURN_CLASSES = [f"E{k}" for k in range(15)]
CHURN_CONS = ("List", "Pair", "Opt")
CHURN_POOL = 16384  # four times the default 4096-entry derivation cache
CHURN_PERIOD = 12  # a push every 12 requests ...
CHURN_POP_AFTER = 6  # ... popped 6 requests later
CHURN_FRAME_VARIANTS = 8
CHURN_WARMUP = 300


def _pushed_frame(j: int) -> list[Rule]:
    """A small frame: a fresh class plus a shadow of a base instance."""
    p = f"P{j}"
    return [
        rule((p, INT)),
        rule((p, BOOL)),
        rule((p, ("List", "a")), (p, "a"), vars=("a",)),
        rule((p, ("Pair", "a", "b")), (p, "a"), (p, "b"), vars=("a", "b")),
        rule(("E0", BOOL)),
    ]


def churn_inputs(seed: int) -> ServiceInputs:
    rng = random.Random(f"churn:{seed}")
    frames = [[], []]
    for k, cls in enumerate(CHURN_CLASSES):
        frames[k * 2 // len(CHURN_CLASSES)].extend(
            _class_rules(cls, CHURN_CONS, overlap=True, catch_all=k % 2 == 0)
        )
    base = Model(frames, "most_specific")
    pushed = [
        Model(frames + [_pushed_frame(j)], "most_specific")
        for j in range(CHURN_FRAME_VARIANTS)
    ]

    leaves, weights = [INT, BOOL, STRING, ("Unit",)], [4, 4, 4, 1]
    pool: list = []
    seen: set = set()
    while len(pool) < CHURN_POOL:
        q = (rng.choice(CHURN_CLASSES), _random_type(rng, CHURN_CONS, leaves, weights, 4))
        if q not in seen:
            seen.add(q)
            pool.append(q)
    stream_rng = random.Random(f"churn-stream:{seed}")

    def stream():
        depth = len(frames)
        for n in itertools.count():
            phase = n % CHURN_PERIOD
            variant = (n // CHURN_PERIOD) % CHURN_FRAME_VARIANTS
            if phase == 0:
                depth += 1
                yield Op(
                    "session/push_rules",
                    {"session": "bench", "rules": [r.text() for r in _pushed_frame(variant)]},
                    depth,
                )
            elif phase == CHURN_POP_AFTER:
                depth -= 1
                yield Op("session/pop", {"session": "bench"}, depth)
            elif phase < CHURN_POP_AFTER and stream_rng.random() < 0.25:
                # A query only the pushed frame can answer.
                q = (f"P{variant}",
                     _random_type(stream_rng, ("List", "Pair"), [INT, BOOL], [1, 1], 3))
                yield Op("resolve", {"session": "bench", "type": render(q)},
                         pushed[variant].expect(q))
            else:
                i = stream_rng.randrange(len(pool))
                model = pushed[variant] if phase < CHURN_POP_AFTER else base
                yield Op("resolve", {"session": "bench", "type": render(pool[i])},
                         model.expect(pool[i]))

    ops = stream()
    return ServiceInputs(
        policy="most_specific",
        frames=[[r.text() for r in f] for f in frames],
        # No fixed pool to pre-answer: the first stream ops warm the code
        # paths and start filling the derivation cache.
        warmup=list(itertools.islice(ops, CHURN_WARMUP)),
        stream=ops,
    )


# ---------------------------------------------------------------------------
# oneshot: cold source programs
# ---------------------------------------------------------------------------

EQ_PRELUDE = """\
interface Eq a = { eq : a -> a -> Bool };
def eqv : forall a . {Eq a} => a -> a -> Bool = eq ?;
def eqInt1 : Eq Int = Eq { eq = primEqInt };
def eqInt2 : Eq Int = Eq { eq = \\x y . isEven x && isEven y };
def eqBool : Eq Bool = Eq { eq = primEqBool };
def eqPair : forall a b . {Eq a, Eq b} => Eq (a, b) =
  Eq { eq = \\x y . eqv (fst x) (fst y) && eqv (snd x) (snd y) };
"""

SHOW_PRELUDE = """\
def show : forall a . {a -> String} => a -> String = ?;
def comma : forall a . {a -> String} => [a] -> String =
  \\xs . intercalate "," (map ? xs);
def space : forall a . {a -> String} => [a] -> String =
  \\xs . intercalate " " (map ? xs);
"""

SORT_PRELUDE = """\
def isort : forall a . {a -> a -> Bool} => [a] -> [a] = \\xs . sortBy ? xs;
def descending : Int -> Int -> Bool = \\x y . y < x;
"""


def _value_tree(rng: random.Random, depth: int):
    """A nested pair of Int/Bool leaves; returns (type, value)."""
    if depth == 0 or (depth < 3 and rng.random() < 0.3):
        if rng.random() < 0.5:
            return INT, rng.randrange(0, 100)
        return BOOL, rng.random() < 0.5
    lt, lv = _value_tree(rng, depth - 1)
    rt, rv = _value_tree(rng, depth - 1)
    return ("Pair", lt, rt), (lv, rv)


def _perturb(rng: random.Random, value):
    """``value`` with one leaf changed (or unchanged, half the time)."""
    if rng.random() < 0.5:
        return value
    if isinstance(value, tuple):
        if rng.random() < 0.5:
            return (_perturb_leaf(rng, value[0]), value[1])
        return (value[0], _perturb_leaf(rng, value[1]))
    return _perturb_leaf(rng, value)


def _perturb_leaf(rng: random.Random, value):
    if isinstance(value, tuple):
        i = rng.randrange(2)
        parts = list(value)
        parts[i] = _perturb_leaf(rng, parts[i])
        return tuple(parts)
    if isinstance(value, bool):
        return not value
    return value + rng.randrange(1, 5)


def _lit(value) -> str:
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, list):
        return "[" + ", ".join(_lit(v) for v in value) + "]"
    return "(" + _lit(value[0]) + ", " + _lit(value[1]) + ")"


def _eq(a, b, even: bool) -> bool:
    if isinstance(a, tuple):
        return _eq(a[0], b[0], even) and _eq(a[1], b[1], even)
    if isinstance(a, bool):
        return a == b
    return (a % 2 == 0 and b % 2 == 0) if even else a == b


def _nest(items: list) -> tuple[str, object]:
    """Right-nested tuple of (text, value) pairs."""
    text, value = items[-1]
    for t, v in reversed(items[:-1]):
        text, value = f"({t},\n {text})", (v, value)
    return text, value


def oneshot_program(seed: int, index: int) -> tuple[str, object]:
    """Program ``index`` of the stream for ``seed`` and its expected value."""
    rng = random.Random(f"oneshot:{seed}:{index}")
    defs: list[str] = []
    parts: list[tuple[str, object]] = []
    kinds = [rng.choice(("eq", "show", "sort", "scopes")) for _ in range(rng.randint(1, 3))]
    for n, kind in enumerate(kinds):
        if kind == "eq":
            ty, x = _value_tree(rng, rng.randint(1, 3))
            defs.append(f"def x{n} : {render(ty)} = {_lit(x)};")
            queries = []
            for q in range(rng.randint(1, 2)):
                y = _perturb(rng, x)
                defs.append(f"def y{n}_{q} : {render(ty)} = {_lit(y)};")
                if rng.random() < 0.5:
                    queries.append((f"implicit {{eqInt2}} in eqv x{n} y{n}_{q}", _eq(x, y, True)))
                else:
                    queries.append((f"eqv x{n} y{n}_{q}", _eq(x, y, False)))
            text, value = _nest(queries)
            parts.append((f"implicit {{eqInt1, eqBool, eqPair}} in {text}", value))
        elif kind == "show":
            xs = [rng.randrange(0, 1000) for _ in range(rng.randint(1, 12))]
            defs.append(
                f"def o{n} : {{Int -> String, {{Int -> String}} => [Int] -> String}}"
                f" => String = show {_lit(xs)};"
            )
            parts.append((
                f"implicit showInt in (implicit comma in o{n}, implicit space in o{n})",
                (",".join(map(str, xs)), " ".join(map(str, xs))),
            ))
        elif kind == "sort":
            xs = [rng.randrange(0, 100) for _ in range(rng.randint(1, 16))]
            parts.append((
                f"implicit ltInt in (isort {_lit(xs)}, implicit descending in isort {_lit(xs)})",
                (tuple(sorted(xs)), tuple(sorted(xs, reverse=True))),
            ))
        else:
            levels = rng.randint(1, 8)
            text, total, current = "0", 0, None
            values = []
            for level in range(levels):
                scoped = level == 0 or rng.random() < 0.6
                if scoped:
                    current = rng.randrange(0, 50)
                    defs.append(f"def v{n}_{level} : Int = {current};")
                values.append((scoped, current))
                total += current
            for level in reversed(range(levels)):
                scoped, _ = values[level]
                inner = f"let a{n}_{level} : Int = ? in a{n}_{level} + ({text})"
                text = f"implicit v{n}_{level} in {inner}" if scoped else inner
            parts.append((text, total))
    prelude = ""
    if "eq" in kinds:
        prelude += EQ_PRELUDE
    if "show" in kinds:
        prelude += SHOW_PRELUDE
    if "sort" in kinds:
        prelude += SORT_PRELUDE
    body, value = _nest(parts)
    return prelude + "\n".join(defs) + "\n" + body + "\n", value
