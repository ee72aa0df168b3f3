"""Command-line interface.

``python -m repro check <requirements.txt>`` runs the full SpecCC
pipeline on a plain-text requirement document (one sentence per line,
``#`` comments allowed) and prints the consistency report; ``--ltl``
additionally prints the translated formulas, ``--tree`` the syntax trees,
``--controllers`` the synthesized Mealy machines and ``--json`` a
machine-readable report instead of the textual summary.  It exits 0 when
the document is consistent, 1 when it is not, and 2 when the file cannot
be read or a sentence cannot be parsed.

``python -m repro serve`` runs the long-lived JSON-lines service loop on
stdin/stdout (see :mod:`repro.service.server` for the protocol) — or,
with ``--tcp HOST:PORT``, on a listening socket (see
:mod:`repro.service.gateway`).  ``python -m repro batch <dir>`` checks
every ``*.txt`` document in a directory, one JSON report line per
document, in this process or (``--backend process``) on the local
worker pool.  It exits 0 when every document is consistent, 1 when one
is not, and 2 on a usage error: no documents, an unreadable document or
an invalid option.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core.pipeline import SpecCC, SpecCCConfig
from .nlp import (
    StructuredEnglishError,
    parse_sentence,
    render_sentence,
    split_sentences,
)
from .translate import AbstractionMethod, TranslationOptions


def _at_least(convert, low, strict: bool = False):
    """An argparse ``type=`` that converts with *convert* and requires
    ``>= low`` (``> low`` when *strict*), so an out-of-range value is a
    usage error (exit 2) instead of a traceback or a silently broken run."""

    def parse(text: str):
        value = convert(text)
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text!r}"
            )
        return value

    parse.__name__ = convert.__name__  # "invalid int value: ..." on junk
    return parse


_non_negative_int = _at_least(int, 0)
_positive_int = _at_least(int, 1)
_non_negative_float = _at_least(float, 0)
_positive_float = _at_least(float, 0, strict=True)


def _parse_address(text: str) -> "tuple":
    """``HOST:PORT`` → ``(host, port)``, the port in 0–65535 (0 picks a
    free one); an argparse ``type=``."""
    host, separator, port = text.rpartition(":")
    if not separator or not host:
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    try:
        number = int(port)
    except ValueError:
        number = -1
    if not 0 <= number <= 65535:
        raise argparse.ArgumentTypeError(f"invalid port (0-65535) in {text!r}")
    return host, number


def _fsync_policy(text: str) -> str:
    """The journal's own fsync-policy parser as an argparse ``type=``."""
    from .service.journal import JournalStore

    try:
        JournalStore.parse_fsync(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return text


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--abstraction",
        choices=[method.value for method in AbstractionMethod],
        default=AbstractionMethod.OPTIMAL.value,
        help="time abstraction method (default: optimal)",
    )
    parser.add_argument(
        "--error-bound",
        type=_non_negative_int,
        default=5,
        help="budget B of Eq. (2)",
    )
    parser.add_argument(
        "--keep-next",
        action="store_true",
        help="translate the 'next' marker as an X operator (the paper drops it)",
    )


def _config_from(args: argparse.Namespace) -> SpecCCConfig:
    return SpecCCConfig(
        translation=TranslationOptions(next_as_x=args.keep_next),
        abstraction=AbstractionMethod(args.abstraction),
        error_bound=args.error_bound,
    )


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help="record nested spans across the whole run and write them as "
        "Chrome trace-event JSON (open in Perfetto or chrome://tracing)",
    )
    parser.add_argument(
        "--slow-span-ms",
        type=_non_negative_float,
        default=None,
        help="log any span exceeding this threshold (milliseconds) with "
        "its attributes via the 'repro.obs.trace' logger; implies tracing",
    )


class _TraceScope:
    """Installs the process-wide tracer for one CLI run, if requested."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.trace_out = args.trace_out
        self.slow_ms = args.slow_span_ms
        self.tracer = None
        self._previous = None

    def __enter__(self) -> "_TraceScope":
        if self.trace_out is not None or self.slow_ms is not None:
            from .obs.trace import Tracer, set_process_tracer

            self.tracer = Tracer(name="cli", slow_ms=self.slow_ms)
            self._previous = set_process_tracer(self.tracer)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.tracer is None:
            return
        from .obs.trace import set_process_tracer

        set_process_tracer(self._previous)
        if self.trace_out is not None:
            events = self.tracer.export_chrome(self.trace_out)
            print(
                f"trace: {events} events -> {self.trace_out}", file=sys.stderr
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SpecCC: consistency checking of natural-language specifications",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="check one requirement document")
    check.add_argument("document", type=Path, help="requirement text file")
    check.add_argument("--ltl", action="store_true", help="print translated LTL")
    check.add_argument("--tree", action="store_true", help="print syntax trees")
    check.add_argument(
        "--controllers", action="store_true", help="print synthesized machines"
    )
    check.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report (same format as serve/batch)",
    )
    check.add_argument(
        "--stats",
        action="store_true",
        help="attach cache and synthesis-engine statistics (the serve "
        "loop's 'stats' payload) to the report",
    )
    _add_config_arguments(check)
    _add_trace_arguments(check)

    serve = sub.add_parser(
        "serve", help="run the JSON-lines service loop on stdin/stdout"
    )
    serve.add_argument(
        "--request-timeout",
        type=_positive_float,
        default=None,
        help="per-request wall-clock deadline in seconds; an expired "
        "request gets a structured 'timeout' error (default: none)",
    )
    serve.add_argument(
        "--max-request-bytes",
        type=_positive_int,
        default=None,
        help="bound on one raw request line; longer lines get a "
        "structured 'oversized' error (default: 1 MiB)",
    )
    serve.add_argument(
        "--max-queue",
        type=_positive_int,
        default=64,
        help="max requests in flight per stream (stdio, or one TCP "
        "connection); at the bound the stream stops reading until one "
        "completes (default: 64)",
    )
    serve.add_argument(
        "--tcp",
        type=_parse_address,
        metavar="HOST:PORT",
        default=None,
        help="listen on a TCP socket instead of stdio (port 0 picks a "
        "free port; the bound address is printed to stderr); batch "
        "requests then default to the process pool",
    )
    serve.add_argument(
        "--max-connections",
        type=_positive_int,
        default=64,
        help="TCP only: concurrent client connections before new ones "
        "are rejected with 'overloaded' (default: 64)",
    )
    serve.add_argument(
        "--rate-limit",
        type=_positive_float,
        default=None,
        help="TCP only: per-connection request rate in requests/second "
        "(token bucket); excess requests get 'overloaded' (default: none)",
    )
    serve.add_argument(
        "--rate-burst",
        type=_positive_float,
        default=None,
        help="TCP only: token-bucket burst capacity (default: the rate)",
    )
    serve.add_argument(
        "--no-client-shutdown",
        action="store_true",
        help="TCP only: reject the 'shutdown' op over the network "
        "(stop the gateway with SIGTERM instead)",
    )
    serve.add_argument(
        "--journal",
        type=Path,
        metavar="DIR",
        default=None,
        help="durable sessions: write-ahead journal every session "
        "mutation under DIR, recover (replay) existing journals at "
        "startup, and enable the 'attach' op for client resume "
        "(see the README's Durability & recovery section)",
    )
    serve.add_argument(
        "--journal-fsync",
        type=_fsync_policy,
        default="always",
        metavar="POLICY",
        help="journal durability policy: 'always' (fsync every append), "
        "'interval:<n>' (fsync every n appends) or 'never' (flush to "
        "the OS only) (default: always)",
    )
    serve.add_argument(
        "--journal-compact-every",
        type=_non_negative_int,
        default=256,
        metavar="N",
        help="snapshot-compact a session's journal once N records have "
        "accumulated (0 disables compaction; default: 256)",
    )
    _add_config_arguments(serve)

    batch = sub.add_parser(
        "batch", help="check every *.txt document in a directory"
    )
    batch.add_argument("directory", type=Path, help="directory of *.txt documents")
    batch.add_argument(
        "--workers",
        type=int,
        default=4,
        help="process backend: worker shards (default: 4); the thread "
        "backend ignores it",
    )
    batch.add_argument(
        "--backend",
        choices=["thread", "process"],
        default="thread",
        help="thread (one document after another in this process, over "
        "shared caches) or process (persistent sharded worker pool, warm "
        "per-process caches)",
    )
    batch.add_argument(
        "--output", type=Path, default=None,
        help="write the JSON-lines results here instead of stdout",
    )
    batch.add_argument(
        "--task-timeout",
        type=_positive_float,
        default=None,
        help="process backend: per-document wall-clock watchdog in "
        "seconds; a hung worker is respawned and the document retried "
        "(default: none)",
    )
    batch.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=3,
        help="process backend: supervised tries per document before it "
        "degrades to the in-process path or an error record (default: 3)",
    )
    _add_config_arguments(batch)
    _add_trace_arguments(batch)
    return parser


def run_check(args: argparse.Namespace) -> int:
    tool = SpecCC(_config_from(args))
    try:
        text = args.document.read_text()
        if args.tree:
            for sentence in split_sentences(text):
                print(render_sentence(parse_sentence(sentence)))
                print()
        report = tool.check_document(text)
    except (OSError, UnicodeDecodeError, StructuredEnglishError) as error:
        # Exit 1 means "inconsistent"; unreadable input is a usage error.
        print(f"repro check: {error}", file=sys.stderr)
        if args.json:
            from .service.reportjson import error_to_dict

            print(json.dumps(error_to_dict(error), indent=2, sort_keys=True))
        return 2
    if args.json:
        from .service.reportjson import report_to_dict, stats_to_dict

        # With --stats every gauge lives exactly once, under "stats";
        # without it the report keeps its compact "cache" attachment.
        if args.stats:
            from .service.pool import shared_pool_stats

            data = report_to_dict(report)
            data["stats"] = stats_to_dict(tool, pools=shared_pool_stats())
        else:
            data = report_to_dict(report, cache=tool.cache_stats())
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0 if report.consistent else 1
    if args.ltl:
        print("translated LTL:")
        for requirement in report.translation.requirements:
            print(f"  [{requirement.identifier}] {requirement.formula}")
        print()
    print(report.summary())
    if args.controllers and report.controllers:
        print()
        for machine in report.controllers:
            print(machine.describe())
    if args.stats:
        from .service.pool import shared_pool_stats
        from .service.reportjson import stats_to_dict

        print()
        print(
            json.dumps(
                stats_to_dict(tool, pools=shared_pool_stats()),
                indent=2,
                sort_keys=True,
            )
        )
    return 0 if report.consistent else 1


def run_serve(args: argparse.Namespace) -> int:
    from .service.server import DEFAULT_MAX_REQUEST_BYTES, AsyncSpecServer, serve

    tool = SpecCC(_config_from(args))
    max_bytes = (
        args.max_request_bytes
        if args.max_request_bytes is not None
        else DEFAULT_MAX_REQUEST_BYTES
    )
    journal_store = None
    if args.journal is not None:
        from .service.faults import FaultPlan, install_journal
        from .service.journal import JournalStore

        # REPRO_FAULTS journal faults (journal_crash / journal_torn) are
        # armed only on journaling serve processes — the soak harnesses'
        # crash injection point.
        install_journal(FaultPlan.from_env())
        journal_store = JournalStore(
            args.journal,
            fsync=args.journal_fsync,
            compact_every=args.journal_compact_every,
        )
    if args.tcp is not None:
        from .service.gateway import serve_tcp

        host, port = args.tcp
        try:
            return serve_tcp(
                host,
                port,
                tool=tool,
                request_timeout=args.request_timeout,
                max_request_bytes=max_bytes,
                max_queue=args.max_queue,
                max_connections=args.max_connections,
                rate=args.rate_limit,
                burst=args.rate_burst,
                allow_shutdown=not args.no_client_shutdown,
                journal_store=journal_store,
            )
        finally:
            if journal_store is not None:
                journal_store.close()
    try:
        return serve(
            server=AsyncSpecServer(
                tool,
                request_timeout=args.request_timeout,
                max_request_bytes=max_bytes,
                max_queue=args.max_queue,
                journal_store=journal_store,
            )
        )
    finally:
        if journal_store is not None:
            journal_store.close()


def run_batch(args: argparse.Namespace) -> int:
    from .service.batch import BatchChecker
    from .service.supervision import SupervisionConfig

    paths = sorted(args.directory.glob("*.txt"))
    if not paths:
        print(f"repro batch: no *.txt documents in {args.directory}", file=sys.stderr)
        return 2
    supervision = None
    if args.backend == "process" and (
        args.task_timeout is not None or args.max_attempts != 3
    ):
        supervision = SupervisionConfig(
            task_timeout=args.task_timeout, max_attempts=args.max_attempts
        )
    # Exit 1 means "inconsistent"; bad options and unreadable documents
    # are usage errors.
    try:
        checker = BatchChecker(
            config=_config_from(args),
            workers=args.workers,
            backend=args.backend,
            supervision=supervision,
        )
    except ValueError as error:
        print(f"repro batch: {error}", file=sys.stderr)
        return 2
    documents = []
    for path in paths:
        try:
            documents.append((path.name, path.read_text()))
        except (OSError, UnicodeDecodeError) as error:
            print(f"repro batch: {path.name}: {error}", file=sys.stderr)
            return 2
    results = checker.check_documents(documents)
    lines = [
        json.dumps({"name": result.name, "report": result.data}, sort_keys=True)
        for result in results
    ]
    if args.output is not None:
        args.output.write_text("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    return 0 if all(result.consistent for result in results) else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "check":
        if args.json and (args.ltl or args.tree or args.controllers):
            # --json owns stdout; the formulas are already in the report.
            parser.error("--json cannot be combined with --ltl/--tree/--controllers")
        with _TraceScope(args):
            return run_check(args)
    if args.command == "serve":
        return run_serve(args)
    if args.command == "batch":
        with _TraceScope(args):
            return run_batch(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
