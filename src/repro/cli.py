"""Command-line interface: run implicit-calculus programs from files.

Usage::

    python -m repro run PROGRAM.impl            # source language (section 5)
    python -m repro run --core PROGRAM.core     # core calculus
    python -m repro compile PROGRAM.impl        # show the lambda_=> encoding
    python -m repro elaborate PROGRAM.impl      # show the System F target
    python -m repro check PROGRAM.impl          # type check only
    python -m repro lint PROGRAM.impl           # static diagnostics (no run)
    python -m repro serve --stdio               # resolution server (JSON lines)
    python -m repro fuzz --seed 0 --cases 500   # differential fuzzing
    python -m repro --version

Failures exit non-zero with one structured line on stderr and no
traceback: ``error: <slug>: message``, where the slug is the snake_case
exception class (``parse_error``, ``no_matching_rule``, ...).  Parse
errors exit 2; semantic failures (type errors, resolution failures,
evaluation errors) exit 1.

Options:
    --operational      use the direct big-step semantics
    --verify           re-check the System F target against |tau|
    --most-specific    companion overlap policy instead of no_overlap
    --strategy S       syntactic | extending | backtracking | corecursive
    --stats            print resolution counters (cache hit rate, lookups,
                       unifications, recursion depth, fuel) to stderr
    --no-cache         disable the resolution derivation cache
    --trace            print the resolution trace-event stream to stderr
"""

from __future__ import annotations

import argparse
import sys

import re

from .core.cache import ResolutionCache
from .core.env import OverlapPolicy
from .core.parser import parse_core_expr
from .core.pretty import pretty_expr, pretty_type
from .core.resolution import ResolutionStrategy, Resolver
from .core.terms import EMPTY_SIGNATURE
from .elaborate.translate import Elaborator
from .errors import ImplicitCalculusError, ParseError
from .obs import ResolutionStats, Tracer, collecting
from .pipeline import (
    Semantics,
    compile_source,
    run_core,
    stack_depth_errors,
    typecheck_core,
)
from .systemf.ast import pretty_fexpr


def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # noqa: BLE001 - not installed as a distribution
        from . import __version__

        return __version__


def error_slug(exc: BaseException) -> str:
    """``NoMatchingRuleError`` -> ``no_matching_rule``, etc."""
    name = type(exc).__name__
    name = name[: -len("Error")] if name.endswith("Error") else name
    return re.sub(r"(?<=[a-z0-9])(?=[A-Z])", "_", name).lower()


def report_error(exc: ImplicitCalculusError) -> int:
    """One structured line on stderr, no traceback; returns the exit code."""
    message = " ".join(str(exc).split())  # guarantee a single line
    print(f"error: {error_slug(exc)}: {message}", file=sys.stderr)
    return 2 if isinstance(exc, ParseError) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="The implicit calculus (PLDI 2012), reproduced in Python.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {_package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("run", "type check and evaluate a program"),
        ("compile", "show the lambda_=> encoding of a source program"),
        ("elaborate", "show the System F elaboration"),
        ("check", "type check only"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("file", help="program file ('-' for stdin)")
        cmd.add_argument(
            "--core",
            action="store_true",
            help="treat the input as core-calculus syntax instead of source",
        )
        cmd.add_argument(
            "--operational",
            action="store_true",
            help="use the direct big-step semantics",
        )
        cmd.add_argument(
            "--verify",
            action="store_true",
            help="re-check the elaborated System F term against |tau|",
        )
        cmd.add_argument(
            "--most-specific",
            action="store_true",
            help="resolve overlap by specificity (companion material)",
        )
        cmd.add_argument(
            "--strategy",
            choices=[s.value for s in ResolutionStrategy],
            default=ResolutionStrategy.SYNTACTIC.value,
            help="resolution strategy (default: the paper's TyRes; "
            "'corecursive' closes guarded cycles with recursive "
            "evidence, docs/RESOLUTION.md)",
        )
        cmd.add_argument(
            "--stats",
            action="store_true",
            help="print resolution counters (cache hit rate, lookups, "
            "unifications, depth, fuel) to stderr",
        )
        cmd.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the resolution derivation cache",
        )
        cmd.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="persist resolved derivations to an on-disk store under "
            "DIR and answer repeat queries from it across runs "
            "(docs/PERSISTENCE.md)",
        )
        cmd.add_argument(
            "--trace",
            action="store_true",
            help="print the resolution trace-event stream to stderr",
        )
    lint = sub.add_parser(
        "lint",
        help="static diagnostics with stable IC codes (docs/DIAGNOSTICS.md)",
    )
    lint.add_argument(
        "files", nargs="+", metavar="file", help="program files ('-' for stdin)"
    )
    lint.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="text with caret underlines, or one JSON object per finding "
        "per line (sorted, byte-stable across runs)",
    )
    lint.add_argument(
        "--max-warnings",
        type=int,
        default=None,
        metavar="N",
        help="fail (exit 1) when more than N warnings are reported",
    )
    lint.add_argument(
        "--most-specific",
        action="store_true",
        help="lint overlap under the specificity policy (companion material)",
    )
    lint.add_argument(
        "--no-semantic",
        action="store_true",
        help="skip the semantic pass (inference + type checking); report "
        "only syntactic well-formedness findings",
    )
    serve = sub.add_parser(
        "serve",
        help="start the concurrent resolution server (docs/SERVICE.md)",
    )
    transport = serve.add_mutually_exclusive_group(required=True)
    transport.add_argument(
        "--stdio",
        action="store_true",
        help="serve JSON lines over stdin/stdout until EOF or shutdown",
    )
    transport.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        help="listen on a TCP address, one thread per connection",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="shard worker *processes* behind an async front-end, "
        "sessions routed by env fingerprint via consistent hashing; "
        "0 (the default) keeps the single-process threaded server",
    )
    serve.add_argument(
        "--threads",
        type=int,
        default=4,
        help="worker threads executing resolution requests, per process "
        "(default 4)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="bounded queue watermark (per process); beyond it requests "
        "are shed with a retryable 'overloaded' error (default 64)",
    )
    serve.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable singleflight coalescing of identical concurrent requests",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist session derivations (and session lifecycles) under "
        "DIR; restarted servers and respawned shard workers re-warm "
        "from disk instead of replaying sessions (docs/PERSISTENCE.md)",
    )
    cache = sub.add_parser(
        "cache",
        help="inspect and maintain a persistent derivation store "
        "(docs/PERSISTENCE.md)",
    )
    cache.add_argument(
        "action",
        choices=["stats", "verify", "compact", "clear"],
        help="stats: counters and sizes; verify: full integrity pass "
        "(exit 1 when records were quarantined); compact: rewrite the "
        "log dropping evicted/quarantined space; clear: drop every "
        "record and start fresh",
    )
    cache.add_argument(
        "--cache-dir",
        required=True,
        metavar="DIR",
        help="the store directory (as passed to run/check/serve)",
    )
    fuzz = sub.add_parser(
        "fuzz",
        help="generative differential fuzzing of the engine pairs "
        "(docs/TESTING.md)",
    )
    fuzz.add_argument(
        "--seed",
        type=int,
        default=0,
        help="corpus seed; the same seed always yields the same cases "
        "(default 0)",
    )
    fuzz.add_argument(
        "--cases",
        type=int,
        default=200,
        help="number of generated cases to run (default 200)",
    )
    fuzz.add_argument(
        "--budget-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; the run stops cleanly after the case "
        "in flight when exceeded (cases are independently seeded, so "
        "truncation never changes the cases that did run)",
    )
    fuzz.add_argument(
        "--oracle",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict to one oracle (repeatable); default: the full "
        "matrix (compiled, cache, logic, semantics, service, "
        "sharded, alpha, permute, lint, store, corecursive, subtyping)",
    )
    fuzz.add_argument(
        "--artifact-dir",
        default=None,
        metavar="DIR",
        help="write one replayable JSON artifact per disagreement",
    )
    fuzz.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="re-run the shrunk case of a saved artifact instead of "
        "fuzzing; exit 0 when the recorded classification reproduces",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report disagreements without delta-debugging them",
    )
    fuzz.add_argument(
        "--inject-fault",
        default=None,
        metavar="ORACLE",
        help="(testing the harness itself) corrupt one side of the "
        "named oracle so every resolvable case disagrees",
    )
    fuzz.add_argument(
        "--stats",
        action="store_true",
        help="print resolution counters (including fuzz_*) to stderr",
    )
    return parser


def _serve(args: argparse.Namespace) -> int:
    if args.workers < 0:
        print(
            "error: invalid_request: --workers must be >= 0", file=sys.stderr
        )
        return 2
    host = port = None
    if args.tcp:
        host, _, port_text = args.tcp.rpartition(":")
        if not host or not port_text.isdigit():
            print(
                "error: invalid_request: --tcp expects HOST:PORT",
                file=sys.stderr,
            )
            return 2
        port = int(port_text)
    if args.workers > 0:
        # Sharded: N shard processes behind an asyncio front-end.
        from .service.frontend import serve_stdio_async, serve_tcp_async
        from .service.shards import ShardSupervisor

        supervisor = ShardSupervisor(
            workers=args.workers,
            threads=args.threads,
            queue_depth=args.queue_depth,
            coalesce=not args.no_coalesce,
            health_interval=1.0,
            cache_dir=args.cache_dir,
        )
        if args.stdio:
            return serve_stdio_async(supervisor)
        return serve_tcp_async(supervisor, host, port)
    from .service import ResolutionService, serve_stdio, serve_tcp

    try:
        service = ResolutionService(
            workers=args.threads,
            queue_depth=args.queue_depth,
            coalesce=not args.no_coalesce,
            cache_dir=args.cache_dir,
        )
    except ImplicitCalculusError as exc:
        return report_error(exc)
    if args.stdio:
        return serve_stdio(service)
    return serve_tcp(service, host, port)


def _lint(args: argparse.Namespace) -> int:
    """Run the static analyzer over each file; never raises on findings.

    Exit codes: 0 when clean (or warnings within ``--max-warnings``),
    1 when any error-severity diagnostic is reported or the warning
    budget is exceeded, 2 when a file cannot be read.
    """
    from .diagnostics import Severity, lint_source, render_json, render_text

    policy = (
        OverlapPolicy.MOST_SPECIFIC if args.most_specific else OverlapPolicy.REJECT
    )
    errors = warnings = 0
    io_failed = False
    blocks: list[str] = []
    for path in args.files:
        try:
            text = _read(path)
        except OSError as exc:
            print(f"error: io: {exc}", file=sys.stderr)
            io_failed = True
            continue
        diagnostics = lint_source(
            text, policy=policy, check_semantic=not args.no_semantic
        )
        errors += sum(d.severity is Severity.ERROR for d in diagnostics)
        warnings += sum(d.severity is Severity.WARNING for d in diagnostics)
        if not diagnostics:
            continue
        if args.format == "json":
            blocks.append(render_json(diagnostics, path))
        else:
            blocks.append(render_text(diagnostics, text, path))
    if blocks:
        print("\n".join(blocks))
    if io_failed:
        return 2
    if errors:
        return 1
    if args.max_warnings is not None and warnings > args.max_warnings:
        print(
            f"error: max_warnings: {warnings} warnings "
            f"(limit {args.max_warnings})",
            file=sys.stderr,
        )
        return 1
    return 0


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _resolver(args: argparse.Namespace, tracer: Tracer | None, store=None) -> Resolver:
    if args.no_cache:
        cache = None
    elif store is not None:
        from .store import PersistentResolutionCache

        cache = PersistentResolutionCache(store)
    else:
        cache = ResolutionCache()
    return Resolver(
        policy=OverlapPolicy.MOST_SPECIFIC
        if args.most_specific
        else OverlapPolicy.REJECT,
        strategy=ResolutionStrategy(args.strategy),
        cache=cache,
        tracer=tracer,
    )


def _cache_cmd(args: argparse.Namespace) -> int:
    """``repro cache stats|verify|compact|clear`` (docs/PERSISTENCE.md).

    ``stats`` and ``verify`` open read-only (they work while a server
    owns the store's writer lock); ``verify`` exits 1 when any record
    was quarantined or a torn tail is present, while resolution against
    the store keeps succeeding -- quarantine degrades, never fails.
    Unreadable paths (a file where the directory should be, the log
    replaced by a directory, permission trouble) are usage errors, not
    crashes: one ``error: io:`` line on stderr and exit 2.
    """
    import json

    from .store import DerivationStore

    read_only = args.action in ("stats", "verify")
    try:
        store = DerivationStore(args.cache_dir, read_only=read_only)
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2
    except ImplicitCalculusError as exc:
        return report_error(exc)
    try:
        if args.action == "stats":
            report = store.stats_view()
        elif args.action == "verify":
            report = store.verify()
        elif args.action == "compact":
            report = store.compact()
        else:  # clear
            report = store.clear()
        print(json.dumps(report, indent=2, sort_keys=True))
        if args.action == "verify" and not report["ok"]:
            return 1
        return 0
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2
    except ImplicitCalculusError as exc:
        return report_error(exc)
    finally:
        store.close()


def _fuzz(args: argparse.Namespace) -> int:
    """Run (or replay) the differential fuzz harness; see docs/TESTING.md.

    Exit codes: 0 when every comparison agrees (or a replayed artifact
    reproduces its recorded classification), 1 when a disagreement is
    found (or a replay fails to reproduce), 2 on bad usage/IO.
    """
    from .fuzz import (
        inject_fault,
        load_artifact,
        replay_artifact,
        resolve_oracle_selection,
        run_fuzz,
    )

    stats = ResolutionStats() if args.stats else None
    try:
        with inject_fault(args.inject_fault), collecting(stats):
            if args.replay is not None:
                try:
                    payload = load_artifact(args.replay)
                except OSError as exc:
                    print(f"error: io: {exc}", file=sys.stderr)
                    return 2
                try:
                    result = replay_artifact(payload)
                except (KeyError, TypeError, AttributeError) as exc:
                    # A hand-edited or truncated artifact is bad usage,
                    # not an engine bug -- no traceback.
                    print(
                        "error: invalid_artifact: malformed replay artifact "
                        f"({type(exc).__name__}: {exc})",
                        file=sys.stderr,
                    )
                    return 2
                print(result.format())
                return 0 if result.reproduced else 1
            oracles = resolve_oracle_selection(args.oracle)
            report = run_fuzz(
                args.seed,
                args.cases,
                oracles=list(oracles),
                budget_s=args.budget_s,
                artifact_dir=args.artifact_dir,
                shrink=not args.no_shrink,
            )
            print(report.format())
            return 0 if report.ok else 1
    except ValueError as exc:
        print(f"error: invalid_request: {exc}", file=sys.stderr)
        return 2
    finally:
        if stats is not None:
            print("-- resolution stats --", file=sys.stderr)
            print(stats.format(), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "serve":
        return _serve(args)
    if args.command == "lint":
        return _lint(args)
    if args.command == "fuzz":
        return _fuzz(args)
    if args.command == "cache":
        return _cache_cmd(args)
    try:
        text = _read(args.file)
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    stats = ResolutionStats() if args.stats else None
    store = None
    if args.cache_dir and not args.no_cache:
        from .store import DerivationStore

        try:
            store = DerivationStore(args.cache_dir)
        except ImplicitCalculusError as exc:
            return report_error(exc)
    resolver = _resolver(args, tracer, store)
    try:
        with collecting(stats), stack_depth_errors():
            if args.core:
                expr = parse_core_expr(text)
                signature = EMPTY_SIGNATURE
            else:
                compiled = compile_source(text)
                expr = compiled.expr
                signature = compiled.signature

            if args.command == "compile":
                print(pretty_expr(expr))
                return 0
            if args.command == "check":
                tau = typecheck_core(expr, signature=signature, resolver=resolver)
                print(pretty_type(tau))
                return 0
            if args.command == "elaborate":
                elaborator = Elaborator(signature=signature, resolver=resolver)
                tau, target = elaborator.elaborate_program(expr)
                print(f"-- : {pretty_type(tau)}")
                print(pretty_fexpr(target))
                return 0
            semantics = (
                Semantics.OPERATIONAL if args.operational else Semantics.ELABORATE
            )
            run = run_core(
                expr,
                signature=signature,
                resolver=resolver,
                semantics=semantics,
                verify=args.verify,
            )
            print(f"-- : {pretty_type(run.type)}")
            print(run.value)
            return 0
    except ImplicitCalculusError as exc:
        return report_error(exc)
    finally:
        if store is not None:
            store.close()
        if tracer is not None and len(tracer):
            print("-- resolution trace --", file=sys.stderr)
            print(tracer.render(), file=sys.stderr)
        if stats is not None:
            print("-- resolution stats --", file=sys.stderr)
            print(stats.format(), file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
