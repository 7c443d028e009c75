"""Command-line interface over the pipeline API and the HTTP service.

Six subcommands:

* ``regel solve "description" --pos a --pos b --neg c`` — solve one problem
  in-process; ``--json`` emits the full machine-readable
  :class:`~repro.api.RunReport`,
* ``regel batch problems.ndjson`` — solve a JSON-lines stream (or JSON
  array) of problem specs, emitting one report per line; ``--resume`` skips
  a line prefix and ``--record`` persists per-item statuses in the same
  :class:`~repro.service.batch.BatchRecord` format the service uses, so an
  interrupted run picks up where it stopped without re-solving,
* ``regel corpus generate|ingest|status`` — the bulk pipeline over
  real-world regex corpora: ``generate`` turns a Davis-format NDJSON corpus
  into Problem NDJSON (see ``docs/corpus.md``), ``ingest`` streams problems
  into a running service through ``POST /v1/batch`` with resumable chunked
  upload, ``status`` pages through a batch's per-item statuses,
* ``regel lint --pos a --neg b --sketch S`` — static analysis only: report
  contradictory example sets, statically-unsatisfiable sketches, vacuous
  subtrees, and dead ``Or`` alternatives without running the engine
  (see ``docs/analysis.md``),
* ``regel serve`` — run the HTTP/JSON service (worker pool + persistent
  result cache; see ``docs/api.md`` and ``docs/deployment.md``),
* ``regel client "description" --pos a --server URL`` — solve against a
  running service; ``--poll`` streams partial solutions through the async
  jobs API, ``--stats`` / ``--health`` query the service instead.

For backwards compatibility, ``regel "description" --pos a`` (no subcommand)
is treated as ``regel solve ...``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from typing import Iterator, Optional, Sequence

from repro.api import (
    NlSketchProvider,
    PbeOnlyProvider,
    Problem,
    Session,
    StaticSketchProvider,
)
from repro.sketch.parser import SketchParseError
from repro.synthesis import SynthesisConfig
from repro.synthesis.config import EngineVariant


def _add_solve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("description", help="natural-language description of the regex")
    parser.add_argument("--pos", action="append", default=[], help="positive example (repeatable)")
    parser.add_argument("--neg", action="append", default=[], help="negative example (repeatable)")
    parser.add_argument("-k", type=int, default=1, help="number of regexes to return")
    parser.add_argument("-t", "--timeout", type=float, default=20.0, help="time budget in seconds")
    parser.add_argument("--sketches", type=int, default=25, help="number of sketches to try")
    parser.add_argument(
        "--sketch",
        action="append",
        default=[],
        metavar="SKETCH",
        help="static sketch in textual notation (repeatable; bypasses the NL parser)",
    )
    parser.add_argument(
        "--pbe-only",
        action="store_true",
        help="ignore the description and synthesize from examples only (Regel-PBE)",
    )
    parser.add_argument(
        "--variant",
        choices=[variant.value for variant in EngineVariant],
        default=EngineVariant.FULL.value,
        help="engine variant (full Regel or a Figure-18 ablation)",
    )
    parser.add_argument("--json", action="store_true", help="emit the RunReport as JSON")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regel",
        description="Synthesize regexes from English descriptions and string examples.",
    )
    subparsers = parser.add_subparsers(dest="command")

    solve = subparsers.add_parser("solve", help="solve a single problem")
    _add_solve_arguments(solve)

    batch = subparsers.add_parser(
        "batch", help="solve a JSON-lines / JSON-array file of problem specs"
    )
    batch.add_argument("input", help="path to the problems file, or '-' for stdin")
    batch.add_argument(
        "--pbe-only", action="store_true", help="examples-only synthesis for every problem"
    )
    batch.add_argument("--sketches", type=int, default=25, help="number of sketches to try")
    batch.add_argument(
        "--resume", type=int, default=0, metavar="N",
        help="skip the first N input lines (continue an interrupted run)",
    )
    batch.add_argument(
        "--record", default=None, metavar="FILE",
        help="persist per-item statuses to FILE (service batch-record format); "
        "an existing record skips every item it already settled",
    )

    corpus = subparsers.add_parser(
        "corpus", help="bulk pipeline over real-world regex corpora (docs/corpus.md)"
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command")

    gen = corpus_sub.add_parser(
        "generate",
        help="corpus NDJSON in, Problem NDJSON out (sampled examples + punched sketches)",
    )
    gen.add_argument("input", help="Davis-format corpus NDJSON, or '-' for stdin")
    gen.add_argument(
        "-o", "--output", default="-", help="output problems NDJSON (default stdout)"
    )
    gen.add_argument("--limit", type=int, default=0, help="max corpus entries to load (0 = all)")
    gen.add_argument(
        "--min-uses", type=int, default=0,
        help="drop corpus regexes with fewer total recorded uses",
    )
    gen.add_argument("--seed", type=int, default=0, help="deterministic generation seed")
    gen.add_argument("--positives", type=int, default=4, help="positive examples per problem")
    gen.add_argument("--negatives", type=int, default=4, help="negative examples per problem")
    gen.add_argument("--sketches", type=int, default=2, help="pinned sketches per problem")
    gen.add_argument("--holes", type=int, default=1, help="holes punched per sketch")
    gen.add_argument(
        "--hole-depth", type=int, default=2,
        help="max height of a subtree a hole may replace",
    )
    gen.add_argument("--budget", type=float, default=10.0, help="budget stamped onto each problem")
    gen.add_argument("-k", type=int, default=1, help="solutions requested per problem")

    ingest = corpus_sub.add_parser(
        "ingest", help="stream Problem NDJSON into a running service via POST /v1/batch"
    )
    ingest.add_argument("input", help="problems NDJSON (from `regel corpus generate`)")
    ingest.add_argument(
        "--server", default="http://127.0.0.1:8765", help="base URL of the service"
    )
    ingest.add_argument(
        "--chunk-size", type=int, default=25, help="problems uploaded per POST"
    )
    ingest.add_argument(
        "--state", default=None, metavar="FILE",
        help="ingestion state file enabling resume (default: <input>.ingest.json)",
    )
    ingest.add_argument(
        "--no-wait", action="store_true",
        help="exit after uploading instead of polling the batch to completion",
    )
    ingest.add_argument(
        "--wait-timeout", type=float, default=600.0,
        help="max seconds to poll for batch completion",
    )
    ingest.add_argument("--json", action="store_true", help="emit the final summary as JSON")

    status = corpus_sub.add_parser(
        "status", help="page through a batch's per-item statuses"
    )
    status.add_argument("batch_id", help="batch id returned by ingest")
    status.add_argument(
        "--server", default="http://127.0.0.1:8765", help="base URL of the service"
    )
    status.add_argument("--offset", type=int, default=0, help="first item index to show")
    status.add_argument("--limit", type=int, default=100, help="items per page")
    status.add_argument("--json", action="store_true", help="emit the raw response JSON")

    lint = subparsers.add_parser(
        "lint", help="statically analyze a problem and sketches without solving"
    )
    lint.add_argument(
        "description", nargs="?", default="",
        help="natural-language description (optional; not analyzed)",
    )
    lint.add_argument("--pos", action="append", default=[], help="positive example (repeatable)")
    lint.add_argument("--neg", action="append", default=[], help="negative example (repeatable)")
    lint.add_argument(
        "--sketch",
        action="append",
        default=[],
        metavar="SKETCH",
        help="sketch in textual notation to analyze against the examples (repeatable)",
    )
    lint.add_argument("--json", action="store_true", help="emit diagnostics as JSON")

    serve = subparsers.add_parser(
        "serve", help="run the HTTP/JSON synthesis service (see docs/api.md)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8765, help="bind port (0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=2, help="worker threads")
    serve.add_argument(
        "--queue-size", type=int, default=16,
        help="bounded job queue; a full queue answers HTTP 429",
    )
    serve.add_argument("--sketches", type=int, default=25, help="sketches per problem")
    serve.add_argument(
        "--cache-path", default=None,
        help="cache directory (default .regel-cache)",
    )
    serve.add_argument(
        "--cache-max-entries", type=int, default=1024,
        help="LRU bound on cached reports",
    )
    serve.add_argument(
        "--max-budget", type=float, default=120.0,
        help="reject problems whose budget exceeds this many seconds",
    )
    serve.add_argument(
        "--watchdog-grace", type=float, default=10.0,
        help="seconds past a job's budget before the watchdog fails it as wedged",
    )
    serve.add_argument(
        "--faults", default=None,
        help="fault-injection spec (REPRO_FAULTS grammar) for chaos runs",
    )
    serve.add_argument(
        "--quiet", action="store_true", help="do not log one line per request"
    )

    client = subparsers.add_parser(
        "client", help="solve a problem against a running `regel serve` instance"
    )
    client.add_argument(
        "description", nargs="?", default=None,
        help="natural-language description of the regex",
    )
    client.add_argument("--pos", action="append", default=[], help="positive example (repeatable)")
    client.add_argument("--neg", action="append", default=[], help="negative example (repeatable)")
    client.add_argument("-k", type=int, default=1, help="number of regexes to return")
    client.add_argument("-t", "--timeout", type=float, default=20.0, help="time budget in seconds")
    client.add_argument(
        "--variant",
        choices=[variant.value for variant in EngineVariant],
        default=EngineVariant.FULL.value,
        help="engine variant",
    )
    client.add_argument(
        "--server", default="http://127.0.0.1:8765", help="base URL of the service"
    )
    client.add_argument(
        "--poll", action="store_true",
        help="submit an async job and stream partial solutions as they arrive",
    )
    client.add_argument("--json", action="store_true", help="emit the RunReport as JSON")
    client.add_argument(
        "--stats", action="store_true", help="print GET /v1/stats and exit"
    )
    client.add_argument(
        "--health", action="store_true", help="print GET /v1/healthz and exit"
    )
    client.add_argument(
        "--retries", type=int, default=3,
        help="retry budget for transient failures (0 disables retrying)",
    )
    return parser


def _make_session(
    args: argparse.Namespace,
    static_sketches: Sequence[str] = (),
    config: Optional[SynthesisConfig] = None,
) -> Session:
    if getattr(args, "pbe_only", False):
        provider = PbeOnlyProvider()
    elif static_sketches:
        provider = StaticSketchProvider(list(static_sketches))
    else:
        provider = NlSketchProvider(num_sketches=args.sketches)
    return Session(provider=provider, config=config)


def _run_solve(args: argparse.Namespace) -> int:
    problem = Problem(
        description=args.description,
        positive=args.pos,
        negative=args.neg,
        k=args.k,
        budget=args.timeout,
        variant=args.variant,
    )
    session = _make_session(
        args, static_sketches=args.sketch, config=SynthesisConfig(timeout=args.timeout)
    )
    if args.json:
        report = session.solve(problem)
        print(report.to_json(indent=2))
        return 0 if report.solved else 1
    # Stream solutions as the portfolio discovers them.
    for solution in session.iter_solutions(problem):
        line = solution.regex
        python_pattern = solution.python_regex()
        if python_pattern is not None:
            line += f"    (python: {python_pattern})"
        print(line, flush=True)
    report = session.last_report
    if report is None or not report.solved:
        print("no consistent regex found within the time budget", file=sys.stderr)
        return 1
    return 0


def _iter_problem_lines(path: str) -> Iterator[str]:
    """Stream raw problem-spec lines without loading the whole file.

    NDJSON is streamed line by line; a top-level JSON array (the legacy batch
    format, detected from the first non-blank character) is necessarily read
    whole and re-emitted one element per line.  stdin is always read whole —
    it cannot be peeked and reopened.
    """
    if path == "-":
        text = sys.stdin.read()
        stripped = text.strip()
        if stripped.startswith("["):
            for entry in json.loads(stripped):
                yield json.dumps(entry)
        else:
            yield from (line for line in text.splitlines() if line.strip())
        return
    with open(path, "r", encoding="utf-8") as handle:
        head = handle.read(1)
        while head.isspace():
            head = handle.read(1)
        handle.seek(0)
        if head == "[":
            for entry in json.load(handle):
                yield json.dumps(entry)
        else:
            for line in handle:
                if line.strip():
                    yield line


def _run_batch(args: argparse.Namespace) -> int:
    from repro.service.batch import (
        ITEM_FAILED,
        ITEM_SOLVED,
        ITEM_UNSOLVED,
        BatchRecord,
    )

    record = BatchRecord.open(args.record, create=True) if args.record else None
    session = _make_session(args)
    counts: Counter = Counter()
    for index, raw in enumerate(_iter_problem_lines(args.input)):
        if index < args.resume:
            counts["skipped"] += 1
            continue
        if record is not None and index < len(record) and not record.needs_reingest(index):
            counts["skipped"] += 1
            continue

        def settle(status: str, **extra) -> None:
            counts[status] += 1
            if record is not None:
                if index < len(record):
                    record.update_item(index, status, **extra)
                else:
                    # Pad for lines jumped over by --resume, so record item
                    # indexes always equal input line indexes.
                    while len(record) < index:
                        record.append_item(ITEM_FAILED, error="skipped by --resume")
                    record.append_item(status, **extra)

        try:
            problem = Problem.from_dict(json.loads(raw))
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            print(
                json.dumps({"index": index, "error": f"invalid problem: {exc}"}),
                flush=True,
            )
            settle(ITEM_FAILED, error=str(exc)[:500])
            continue
        try:
            report = session.solve(problem)
        except Exception as exc:  # keep the stream going past one bad item
            print(
                json.dumps({"index": index, "error": f"engine error: {exc}"}),
                flush=True,
            )
            settle(ITEM_FAILED, cache_key=problem.cache_key(), error=str(exc)[:500])
            continue
        print(report.to_json(), flush=True)
        regex = report.solutions[0].regex if report.solutions else None
        settle(
            ITEM_SOLVED if report.solved else ITEM_UNSOLVED,
            cache_key=problem.cache_key(),
            regex=regex,
        )
    total = sum(counts.values())
    summary = ", ".join(
        f"{counts[key]} {key}"
        for key in ("solved", "unsolved", "failed", "skipped")
        if counts[key]
    )
    print(f"batch: {total} item(s): {summary or 'nothing to do'}", file=sys.stderr)
    return 1 if counts["failed"] else 0


def _run_corpus_generate(args: argparse.Namespace) -> int:
    from repro.corpus import GeneratorConfig, generate_problems, load_corpus

    result = load_corpus(
        sys.stdin if args.input == "-" else args.input,
        min_uses=args.min_uses,
        limit=args.limit,
    )
    config = GeneratorConfig(
        positives=args.positives,
        negatives=args.negatives,
        sketches=args.sketches,
        holes=args.holes,
        hole_depth=args.hole_depth,
        seed=args.seed,
        budget=args.budget,
        k=args.k,
    )
    generated = generate_problems(result.entries, config)
    out = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8")
    try:
        for problem in generated.problems:
            out.write(problem.canonical_json() + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    skip_counts = Counter(result.skipped) + Counter(generated.skipped)
    skips = ", ".join(f"{count} {reason}" for reason, count in sorted(skip_counts.items()))
    print(
        f"corpus: {result.total_lines} line(s) -> {len(generated.problems)} problem(s)"
        + (f" (skipped: {skips})" if skips else ""),
        file=sys.stderr,
    )
    return 0


def _ingest_state_path(args: argparse.Namespace) -> str:
    return args.state if args.state else args.input + ".ingest.json"


def _run_corpus_ingest(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    lines = list(_iter_problem_lines(args.input))
    state_path = _ingest_state_path(args)
    state = {}
    if os.path.exists(state_path):
        with open(state_path, "r", encoding="utf-8") as handle:
            state = json.load(handle)
    batch_id = state.get("batch_id")
    offset = int(state.get("offset", 0)) if batch_id else 0
    client = ServiceClient(args.server)
    chunk_size = max(1, args.chunk_size)

    def save_state(next_offset: int) -> None:
        payload = {"batch_id": batch_id, "offset": next_offset, "server": args.server}
        with open(state_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

    position = min(offset, len(lines))
    if batch_id:
        # A server restart strands items in `queued` with no job behind
        # them; only a re-POST of their lines revives them (the record
        # persists cache keys, not problem bodies).  Re-sending from 0 is
        # always safe — the server skips every terminal or live item — so
        # when the batch reports anything still queued, restart the upload
        # rather than trusting the client-side offset.
        try:
            queued = client.batch_status(batch_id, limit=1)["counts"]["queued"]
        except OSError:
            queued = 0  # unknown batch or unreachable: the loop will say so
        if queued:
            position = 0
        print(
            f"resuming batch {batch_id} at item {position}/{len(lines)}"
            + (f" ({queued} stranded item(s) to re-ingest)" if queued else ""),
            file=sys.stderr,
        )
    while position < len(lines) or batch_id is None:
        chunk = lines[position : position + chunk_size]
        response = client.submit_batch(chunk, batch_id=batch_id, offset=position)
        batch_id = response["batch_id"]
        position += len(chunk)
        save_state(position)
        print(
            f"uploaded {position}/{len(lines)} "
            f"(+{response['ingested']} ingested, {response['skipped']} already known)",
            file=sys.stderr,
        )
        if not chunk:
            break
    if args.no_wait:
        print(f"batch {batch_id} uploaded; poll with: regel corpus status {batch_id}")
        return 0
    summary = client.wait_batch(batch_id, timeout=args.wait_timeout)
    counts = summary["counts"]
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        rendered = ", ".join(f"{count} {key}" for key, count in counts.items() if count)
        print(f"batch {batch_id}: {summary['total']} item(s): {rendered}")
    return 1 if counts.get("failed") else 0


def _run_corpus_status(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(args.server)
    page = client.batch_status(args.batch_id, offset=args.offset, limit=args.limit)
    if args.json:
        print(json.dumps(page, indent=2))
        return 0
    counts = page["counts"]
    rendered = ", ".join(f"{count} {key}" for key, count in counts.items() if count)
    print(f"batch {page['batch_id']}: {page['total']} item(s), done={page['done']}: {rendered}")
    for item in page["items"]:
        line = f"  [{item['index']:>5}] {item['status']}"
        if item.get("regex"):
            line += f"  {item['regex']}"
        if item.get("error"):
            line += f"  ({item['error'].splitlines()[0][:80]})"
        print(line)
    return 0


def _run_corpus(args: argparse.Namespace) -> int:
    if args.corpus_command == "generate":
        return _run_corpus_generate(args)
    if args.corpus_command == "ingest":
        return _run_corpus_ingest(args)
    if args.corpus_command == "status":
        return _run_corpus_status(args)
    print(
        "regel corpus: choose a subcommand: generate, ingest, or status",
        file=sys.stderr,
    )
    return 2


def _run_lint(args: argparse.Namespace) -> int:
    from repro.analysis import SEVERITY_ERROR, has_errors, lint_problem, problem_unsatisfiable
    from repro.sketch.parser import parse_sketch

    problem = Problem(
        description=args.description, positive=args.pos, negative=args.neg
    )
    sketches = [(text, parse_sketch(text)) for text in args.sketch]
    diagnostics = lint_problem(problem, sketches=sketches)
    satisfiable = problem_unsatisfiable(problem) is None
    if args.json:
        print(
            json.dumps(
                {
                    "satisfiable": satisfiable,
                    "diagnostics": [diag.to_dict() for diag in diagnostics],
                },
                indent=2,
            )
        )
        return 1 if has_errors(diagnostics) else 0
    if not diagnostics:
        print("no diagnostics")
        return 0
    for diag in diagnostics:
        print(f"{diag.severity}: {diag.code} at {diag.path}: {diag.message}")
    errors = sum(diag.severity == SEVERITY_ERROR for diag in diagnostics)
    summary = f"{len(diagnostics)} diagnostic(s), {errors} error(s)"
    if not satisfiable:
        summary += " — the problem is statically unsatisfiable"
    print(summary, file=sys.stderr)
    return 1 if errors else 0


def _run_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        sketches=args.sketches,
        cache_path=args.cache_path,
        cache_max_entries=args.cache_max_entries,
        max_budget=args.max_budget,
        log_requests=not args.quiet,
        watchdog_grace=args.watchdog_grace,
        faults=args.faults,
    )
    return serve(config)


def _run_client(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(args.server, retries=args.retries)
    if args.health:
        print(json.dumps(client.healthz(), indent=2))
        return 0
    if args.stats:
        print(json.dumps(client.stats(), indent=2))
        return 0
    if args.description is None:
        print("regel: error: client needs a description (or --stats/--health)", file=sys.stderr)
        return 2
    problem = Problem(
        description=args.description,
        positive=args.pos,
        negative=args.neg,
        k=args.k,
        budget=args.timeout,
        variant=args.variant,
    )
    if args.poll:
        # Async job + polled partial solutions (the wire mirror of
        # Session.iter_solutions).
        for solution in client.iter_solutions(problem):
            print(solution.regex, flush=True)
        record = client.last_job or {}
        report = record.get("report")
        if args.json and report is not None:
            print(json.dumps(report, indent=2))
        return 0 if record.get("solutions") else 1
    report = client.solve(problem)
    if args.json:
        print(report.to_json(indent=2))
    else:
        for solution in report.solutions:
            print(solution.regex, flush=True)
        if report.provenance == "cache":
            print("(served from the persistent result cache)", file=sys.stderr)
    if not report.solved:
        print("no consistent regex found within the time budget", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(argv if argv is not None else sys.argv[1:])
    # Backwards compatibility: `regel "description" --pos ...` means `solve`.
    known = {"solve", "batch", "corpus", "lint", "serve", "client", "-h", "--help"}
    if argv and argv[0] not in known:
        argv = ["solve", *argv]
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.command == "batch":
            return _run_batch(args)
        if args.command == "corpus":
            return _run_corpus(args)
        if args.command == "lint":
            return _run_lint(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "client":
            return _run_client(args)
        return _run_solve(args)
    except (SketchParseError, json.JSONDecodeError, ValueError, OSError) as exc:
        # User-input errors (bad sketch notation, malformed problem files,
        # invalid budgets, unreachable servers) get one clean line instead of
        # a traceback.
        print(f"regel: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
