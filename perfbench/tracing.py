"""Spans recorded from outside the program, by wrapping public functions.

:data:`TARGETS` lists each layer boundary as ``(span name, module,
attribute path)``.  A function imported into another module is wrapped
at that call site, so the span covers exactly the calls the pipeline or
service makes.  :meth:`Tracer.install` skips a target whose module or
attribute no longer exists and reports it as absent, so a later change
that removes or renames a layer entry point does not break the traced
run.

Spans are kept in memory: name, start, end, parent span and op id.  A
span's self time is its duration minus the time its child spans cover.
Only the outermost call of a name is a span; recursive calls (for
example ``Derivation.size`` on premises) run through unrecorded.

The service runs its work on one worker thread while the calling thread
waits for the reply, so at most one thread executes a wrapped function
at a time and one shared span stack gives correct parents.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

#: (span name, module, attribute path) for every wrapped entry point.
TARGETS = [
    ("source.parse", "repro.pipeline", "parse_program"),
    ("source.infer", "repro.pipeline", "compile_program"),
    ("elaborate", "repro.elaborate.translate", "Elaborator.elaborate_program"),
    ("systemf.typecheck", "repro.systemf.typecheck", "FTypeChecker.check_program"),
    ("systemf.eval", "repro.pipeline", "feval"),
    ("core.resolution", "repro.core.resolution", "Resolver.resolve"),
    ("core.resolution.size", "repro.core.resolution", "Derivation.size"),
    ("core.parser.type", "repro.service.server", "parse_core_type"),
    ("core.parser.type", "repro.service.sessions", "parse_core_type"),
    ("core.pretty", "repro.core.pretty", "pretty_type"),
    ("core.pretty", "repro.service.server", "pretty_type"),
    ("obs.merge", "repro.obs.stats", "ResolutionStats.merge"),
    ("service.request", "repro.service.server", "ResolutionService.handle_sync"),
]

#: Service requests that push a frame get their own span name, so the
#: price of a push can be read apart from the queries around it.
PUSH_OP = "session/push_rules"


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.self_ns: list[int] = []
        self.incl_ns: list[int] = []
        self.calls: list[int] = []
        self._active: list[int] = []  # open spans per name id
        self._stack: list[list[int]] = []  # [span index, child ns]
        self.op_id = -1
        self.enabled = False
        self.installed: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.incl_ns.append(0)
            self.calls.append(0)
            self._active.append(0)
        return nid

    # -- wrapping --------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every present target; record the absent ones."""
        push_id = self._name_id("service.push")
        for name, module_name, path in targets:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            nid = self._name_id(name)
            if name == "service.request":
                wrapper = self._wrap(original, nid, push_id)
            else:
                wrapper = self._wrap(original, nid, None)
            self.installed.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed.clear()

    def _wrap(self, fn, nid: int, push_id: int | None):
        active, stack, spans = self._active, self._stack, self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_nid = nid
            if push_id is not None and args[-1].get("op") == PUSH_OP:
                span_nid = push_id
            if active[span_nid]:
                return fn(*args, **kwargs)
            active[span_nid] += 1
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[span_nid] -= 1
                duration = end - start
                spans[index] = (span_nid, start, end, parent, self.op_id)
                self.incl_ns[span_nid] += duration
                self.self_ns[span_nid] += duration - frame[1]
                self.calls[span_nid] += 1
                if stack:
                    stack[-1][1] += duration

        return wrapper

    # -- reading ---------------------------------------------------------

    def totals(self, name: str) -> tuple[float, float, int]:
        """(inclusive ms, self ms, calls) recorded under ``name``."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0.0, 0.0, 0
        return self.incl_ns[nid] / 1e6, self.self_ns[nid] / 1e6, self.calls[nid]

    def is_absent(self, name: str) -> bool:
        """True when every target feeding ``name`` is missing."""
        return name not in self._name_ids or all(
            f"{m}.{p}" in self.absent for n, m, p in TARGETS if n == name
        )

    def write(self, path: str) -> int:
        """Write spans as JSON lines; returns how many."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"names": self.names, "absent": self.absent,
                                  "fields": ["name", "start_ns", "end_ns",
                                             "parent", "op"]}) + "\n")
            for nid, start, end, parent, op in self.spans:
                out.write(f'["{self.names[nid]}",{start},{end},{parent},{op}]\n')
        return len(self.spans)
