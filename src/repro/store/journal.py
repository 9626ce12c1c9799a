"""The session journal: durable session lifecycles for ``--cache-dir``.

The derivation log answers *"what did resolution prove?"*; the journal
answers *"what sessions existed, with which environments?"* -- the two
together let a restarted server (or a respawned shard worker) come back
with its sessions rebuilt and their caches disk-warm, instead of asking
the supervisor to replay every ``session/new`` / ``push_rules`` from an
in-memory warm log.

Events are JSON payloads on the same CRC-framed
:class:`~repro.store.log.RecordLog` as derivations (``sessions.log``,
``kind="sessions"``), rule types wire-encoded::

    {"op": "new",  "name": ..., "config": {...} | null, "rules": [...]}
    {"op": "push", "name": ..., "rules": [...]}
    {"op": "pop",  "name": ...}
    {"op": "close","name": ...}

``replay`` folds the event stream into the surviving sessions; corrupt
events are skipped (the log already quarantined them) and events for
unknown sessions are ignored, so a damaged journal degrades to fewer
restored sessions, never a crash.  After a restore the owner calls
:meth:`SessionJournal.rewrite` with the folded state, which both bounds
journal growth and drops closed sessions.
"""

from __future__ import annotations

import json
import threading
from typing import Any

from ..core.env import OverlapPolicy
from ..core.resolution import ResolutionStrategy
from ..pipeline import Semantics
from .log import RecordLog


class JournaledSession:
    """The folded journal state of one live session."""

    __slots__ = ("name", "config", "frames")

    def __init__(self, name: str, config: dict | None):
        self.name = name
        #: Decoded ``session/new`` config values, or ``None`` for the
        #: server default.
        self.config = config
        #: One list of wire-encoded rule types per live frame.
        self.frames: list[list[str]] = []


def config_doc(config) -> dict:
    """A :class:`~repro.service.sessions.SessionConfig` as plain JSON."""
    return {
        "policy": config.policy.value,
        "strategy": config.strategy.value,
        "fuel": config.fuel,
        "semantics": config.semantics.value,
        "cache_entries": config.cache_entries,
    }


def config_from_doc(doc: dict):
    from ..service.sessions import SessionConfig

    return SessionConfig(
        policy=OverlapPolicy(doc["policy"]),
        strategy=ResolutionStrategy(doc["strategy"]),
        fuel=int(doc["fuel"]),
        semantics=Semantics(doc["semantics"]),
        cache_entries=int(doc["cache_entries"]),
    )


class SessionJournal:
    """Append-only session lifecycle log (module docs)."""

    def __init__(self, path: str, *, read_only: bool = False):
        self.log = RecordLog(path, kind="sessions", read_only=read_only)
        # Control ops record from any transport thread.
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------

    def _append(self, doc: dict[str, Any]) -> None:
        with self._lock:
            self.log.append(
                json.dumps(doc, sort_keys=True, separators=(",", ":")).encode(
                    "utf-8"
                )
            )

    def record_new(
        self, name: str, config: dict | None, rules: list[str]
    ) -> None:
        self._append({"op": "new", "name": name, "config": config, "rules": rules})

    def record_push(self, name: str, rules: list[str]) -> None:
        self._append({"op": "push", "name": name, "rules": rules})

    def record_pop(self, name: str) -> None:
        self._append({"op": "pop", "name": name})

    def record_close(self, name: str) -> None:
        self._append({"op": "close", "name": name})

    # -- replay ----------------------------------------------------------

    def replay(self) -> dict[str, JournaledSession]:
        """Fold the event stream into the surviving sessions."""
        sessions: dict[str, JournaledSession] = {}
        for _offset, payload in self.log.scan():
            try:
                doc = json.loads(payload.decode("utf-8"))
                op = doc["op"]
                name = doc["name"]
            except Exception:
                continue  # damaged event: degrade, never crash
            if op == "new":
                session = JournaledSession(name, doc.get("config"))
                rules = doc.get("rules") or []
                if rules:
                    session.frames.append(list(rules))
                sessions[name] = session
            elif op == "push":
                session = sessions.get(name)
                if session is not None:
                    session.frames.append(list(doc.get("rules") or []))
            elif op == "pop":
                session = sessions.get(name)
                if session is not None and session.frames:
                    session.frames.pop()
            elif op == "close":
                sessions.pop(name, None)
        return sessions

    def rewrite(self, sessions: dict[str, JournaledSession]) -> None:
        """Compact the journal down to ``sessions``' current state."""
        payloads: list[bytes] = []
        for name in sorted(sessions):
            session = sessions[name]
            frames = session.frames
            head = frames[0] if frames else []
            payloads.append(
                json.dumps(
                    {
                        "op": "new",
                        "name": name,
                        "config": session.config,
                        "rules": head,
                    },
                    sort_keys=True,
                    separators=(",", ":"),
                ).encode("utf-8")
            )
            for frame in frames[1:]:
                payloads.append(
                    json.dumps(
                        {"op": "push", "name": name, "rules": frame},
                        sort_keys=True,
                        separators=(",", ":"),
                    ).encode("utf-8")
                )
        with self._lock:
            self.log.replace_all(payloads)

    def close(self) -> None:
        with self._lock:
            self.log.close()
