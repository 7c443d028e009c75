"""Transport-independent request handling for the service.

:class:`ServiceState` owns everything behind the HTTP surface — the worker
pool, the persistent result cache, the job registry, and the counters — and
exposes one ``handle_*`` method per endpoint, each returning
``(status_code, payload_dict)``.  Keeping this layer free of ``http.server``
types makes every endpoint testable as a plain function call and leaves the
server module a thin routing shim.

Request flow for a solve (sync or async):

1. validate the body into a :class:`~repro.api.Problem` (:mod:`wire`),
2. reject statically-unsatisfiable problems (conflicting example sets) with
   HTTP 422 before they occupy a warm worker (:mod:`repro.analysis`),
3. look up the canonical problem hash in the cache — a hit answers
   immediately with ``provenance: "cache"`` and never touches the pool,
4. on a miss, enqueue a :class:`~repro.service.pool.Job`; a full queue is
   HTTP 429 (back-pressure),
5. completed engine runs are written through to the cache, so the next
   identical request from any user is a hit.

``POST /v1/lint`` runs the same analyzer in report-only mode: full
diagnostics, always 200, nothing queued.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Optional, Tuple

from repro.analysis.diagnostics import lint_problem, problem_unsatisfiable
from repro.api.problem import Problem
from repro.api.providers import NlSketchProvider
from repro.api.session import Session
from repro.faults import fault_point, fault_stats
from repro.service.batch import (
    ITEM_CACHED,
    ITEM_FAILED,
    ITEM_QUEUED,
    ITEM_SOLVED,
    ITEM_UNSOLVED,
    BatchRecord,
    BatchStore,
)
from repro.service.cache import ResultCache
from repro.service.pool import Job, PoolSaturated, WorkerPool
from repro.service.wire import (
    JOB_DONE,
    JOB_FAILED,
    WIRE_SCHEMA,
    WireError,
    error_body,
    job_body,
    parse_lint_sketches,
    parse_problem,
    problem_from_data,
)

Response = Tuple[int, Dict[str, Any]]

#: Extra wall-clock a synchronous solve may wait past the problem's budget.
SYNC_GRACE_SECONDS = 5.0
#: Terminal jobs kept for polling before being pruned, oldest first.
MAX_TRACKED_JOBS = 256


@dataclass
class ServiceConfig:
    """Everything ``regel serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 8765
    #: Worker threads, each with its own warm :class:`~repro.api.Session`.
    workers: int = 2
    #: Bounded job queue; a full queue answers 429.
    queue_size: int = 16
    #: Cache directory; None picks a default under the working directory.
    cache_path: Optional[str] = None
    cache_max_entries: int = 1024
    #: Sketches requested from the semantic parser per problem.
    sketches: int = 25
    #: Reject problems whose budget exceeds this (seconds).
    max_budget: float = 120.0
    #: Print one line per request (off in tests/benchmarks).
    log_requests: bool = field(default=False)
    #: Directory for persistent batch records; None derives a sibling of the
    #: cache path, so one ``--cache-path`` flag relocates both artifacts.
    batch_dir: Optional[str] = None
    #: Extra wall-clock past a job's budget before the pool watchdog settles
    #: it as failed (the worker is presumed wedged).
    watchdog_grace: float = 10.0
    #: Fault-injection spec (``REPRO_FAULTS`` grammar) armed at serve time;
    #: None leaves whatever the environment configured.
    faults: Optional[str] = None

    def resolved_cache_path(self) -> str:
        return self.cache_path if self.cache_path is not None else ".regel-cache"

    def resolved_batch_dir(self) -> str:
        if self.batch_dir is not None:
            return self.batch_dir
        return self.resolved_cache_path() + ".batches"


class ServiceState:
    """The live service: pool + cache + job registry + counters."""

    def __init__(self, config: ServiceConfig, cache: Optional[ResultCache] = None):
        self.config = config
        self.cache = cache if cache is not None else ResultCache(
            config.resolved_cache_path(), config.cache_max_entries
        )
        self.pool = WorkerPool(
            session_factory=self._make_session,
            workers=config.workers,
            queue_size=config.queue_size,
            on_complete=self._write_through,
            watchdog_grace=config.watchdog_grace,
        )
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        #: cache_key → live job, so concurrent identical requests coalesce
        #: onto one engine run instead of each occupying a worker.
        self._inflight: Dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._counters_lock = threading.Lock()
        self.requests: Dict[str, int] = {}
        self.started = time.time()
        self.batches = BatchStore(config.resolved_batch_dir())
        #: Batch items awaiting pool capacity: ``(record, index, problem, key)``.
        #: The feeder thread drains this with retry, so a 1000-item batch
        #: never sees the pool's 429 back-pressure — the backlog *is* the
        #: back-pressure, and it answers instantly with ``queued`` statuses.
        self._batch_backlog: Deque[Tuple[BatchRecord, int, Problem, str]] = deque()
        self._batch_cond = threading.Condition()
        self._batch_feeder_thread: Optional[threading.Thread] = None
        self._closing = False

    def _make_session(self) -> Session:
        # One session per worker thread: the NL provider holds the trained
        # semantic parser (the expensive, reusable state).
        return Session(provider=NlSketchProvider(num_sketches=self.config.sketches))

    # -- bookkeeping ---------------------------------------------------------

    def count(self, endpoint: str) -> None:
        with self._counters_lock:
            self.requests[endpoint] = self.requests.get(endpoint, 0) + 1

    def _register(self, job: Job) -> None:
        with self._jobs_lock:
            self._register_locked(job)

    def _register_locked(self, job: Job) -> None:
        self._jobs[job.id] = job
        # Prune the oldest *terminal* jobs past the tracking bound;
        # live jobs are never dropped.
        excess = len(self._jobs) - MAX_TRACKED_JOBS
        if excess > 0:
            for job_id in [
                jid for jid, tracked in self._jobs.items() if tracked.terminal
            ][:excess]:
                del self._jobs[job_id]

    def _lookup(self, job_id: str) -> Optional[Job]:
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def _coalesce_or_submit(self, job: Job) -> Job:
        """Reuse a live identical job, or enqueue ``job`` as the new one.

        Identical problems arriving while the first is still queued/running
        attach to that run (ISSUE-motivating dedup under concurrency, before
        the cache has anything to serve).  Raises :class:`PoolSaturated`.

        Coalescing, submission, and registration happen under one lock:
        a concurrent identical request must never observe a job that then
        fails to enter the pool (it would wait on a phantom that no worker
        will ever finish).
        """
        with self._jobs_lock:
            existing = self._inflight.get(job.cache_key)
            if existing is not None and not existing.terminal:
                return existing
            # Prune terminal leftovers lazily; the dict stays bounded by the
            # pool's capacity plus recently finished keys.
            if len(self._inflight) > 2 * (
                self.config.queue_size + self.config.workers
            ):
                self._inflight = {
                    key: tracked
                    for key, tracked in self._inflight.items()
                    if not tracked.terminal
                }
            self.pool.submit(job)  # may raise PoolSaturated: nothing recorded
            self._inflight[job.cache_key] = job
            self._register_locked(job)
        return job

    def _write_through(self, cache_key: str, report: Dict[str, Any]) -> None:
        """Pool completion hook: persist *solved* engine reports.

        Runs on the worker thread *before* the job is marked done, so a
        client re-posting the identical problem the instant its first
        response arrives is guaranteed to hit the cache.  Unsolved and
        cancelled reports are never cached: a budget-bounded search that
        found nothing under one machine's load is not a stable fact about
        the problem, and caching it would poison every future request.
        """
        if report.get("solved") and not report.get("cancelled"):
            self.cache.put(cache_key, report)

    def _cached_report(self, key: str) -> Optional[Dict[str, Any]]:
        report = self.cache.get(key)
        if report is None:
            return None
        report = dict(report)
        report["provenance"] = "cache"
        report["cache_key"] = key
        return report

    # -- endpoints -----------------------------------------------------------

    @staticmethod
    def _reject_unsatisfiable(problem) -> Optional[Response]:
        """The pre-queue 422 for problems no regex can ever satisfy.

        Only statically *proven* unsatisfiability is rejected (the analysis
        may say "maybe", never a wrong "no"), so every accepted problem is
        still worth a worker's time.
        """
        diagnostic = problem_unsatisfiable(problem)
        if diagnostic is None:
            return None
        payload = error_body(diagnostic.code, diagnostic.message)
        payload["diagnostics"] = [diagnostic.to_dict()]
        return 422, payload

    def handle_solve(self, body: bytes) -> Response:
        """``POST /v1/solve`` — synchronous: block until the report is ready."""
        self.count("solve")
        try:
            problem = parse_problem(body, max_budget=self.config.max_budget)
        except WireError as exc:
            return exc.status, error_body(exc.code, str(exc))
        rejected = self._reject_unsatisfiable(problem)
        if rejected is not None:
            return rejected
        key = problem.cache_key()
        cached = self._cached_report(key)
        if cached is not None:
            return 200, cached
        try:
            job = self._coalesce_or_submit(Job(problem, cache_key=key))
        except PoolSaturated as exc:
            return 429, error_body("saturated", str(exc))
        if not job.wait(timeout=problem.budget + SYNC_GRACE_SECONDS):
            # The job keeps running (and will be cached); tell the client
            # where to poll for it instead of holding the connection open.
            payload = error_body(
                "deadline_exceeded",
                "solve did not finish within budget + grace; poll the job",
            )
            payload["job_id"] = job.id
            return 504, payload
        if job.status == JOB_DONE:
            return 200, job.report
        if job.status == JOB_FAILED:
            return 500, error_body("engine_error", job.error or "synthesis failed")
        return 503, error_body("cancelled", "job was cancelled before completion")

    def handle_submit(self, body: bytes) -> Response:
        """``POST /v1/jobs`` — async: return a job id to poll."""
        self.count("jobs.submit")
        try:
            problem = parse_problem(body, max_budget=self.config.max_budget)
        except WireError as exc:
            return exc.status, error_body(exc.code, str(exc))
        rejected = self._reject_unsatisfiable(problem)
        if rejected is not None:
            return rejected
        key = problem.cache_key()
        job = Job(problem, cache_key=key)
        cached = self._cached_report(key)
        if cached is not None:
            # A hit still gets a job record, so clients have one code path;
            # it is born terminal with the cached report attached.
            job.solutions = [dict(entry) for entry in cached.get("solutions", [])]
            job.finish(JOB_DONE, report=cached)
            self._register(job)
            return 202, job_body(job)
        try:
            job = self._coalesce_or_submit(job)
        except PoolSaturated as exc:
            return 429, error_body("saturated", str(exc))
        return 202, job_body(job)

    def handle_lint(self, body: bytes) -> Response:
        """``POST /v1/lint`` — static analysis only; never touches the pool.

        The body is a Problem dict, optionally extended with ``"sketches"``:
        a JSON array of sketch strings to analyze against the examples.
        Always 200 with the full diagnostic list — linting an unsatisfiable
        problem is the point, not an error.
        """
        self.count("lint")
        try:
            problem = parse_problem(body)
            sketches = parse_lint_sketches(body)
        except WireError as exc:
            return exc.status, error_body(exc.code, str(exc))
        diagnostics = lint_problem(problem, sketches)
        return 200, {
            "schema": WIRE_SCHEMA,
            "satisfiable": problem_unsatisfiable(problem) is None,
            "diagnostics": [diagnostic.to_dict() for diagnostic in diagnostics],
        }

    def handle_job_get(self, job_id: str) -> Response:
        """``GET /v1/jobs/{id}`` — poll status + partial solutions."""
        self.count("jobs.get")
        job = self._lookup(job_id)
        if job is None:
            return 404, error_body("not_found", f"no such job: {job_id}")
        return 200, job_body(job)

    def handle_job_cancel(self, job_id: str) -> Response:
        """``DELETE /v1/jobs/{id}`` — cooperative cancellation.

        Note: identical concurrent requests coalesce onto one job, so
        cancelling it cancels the run for every requester sharing it.
        """
        self.count("jobs.cancel")
        job = self._lookup(job_id)
        if job is None:
            return 404, error_body("not_found", f"no such job: {job_id}")
        if not job.terminal:
            job.request_cancel()
        return 202, job_body(job)

    # -- batch ingestion -----------------------------------------------------

    def _ensure_feeder(self) -> None:
        with self._batch_cond:
            if self._closing:
                # Shutdown has begun: never (re)start the feeder, or it could
                # race the pool's close and feed jobs into a stopping queue.
                return
            if self._batch_feeder_thread is None or not self._batch_feeder_thread.is_alive():
                self._batch_feeder_thread = threading.Thread(
                    target=self._batch_feeder, name="regel-batch-feeder", daemon=True
                )
                self._batch_feeder_thread.start()

    def _batch_feeder(self) -> None:
        """Drain the batch backlog into the bounded pool, retrying saturation.

        Interactive requests and batch items share the same pool; the feeder
        simply waits out full-queue periods instead of failing items, so bulk
        ingestion is throttled by — never starved of, never starving —
        interactive traffic.
        """
        while True:
            with self._batch_cond:
                while not self._batch_backlog and not self._closing:
                    self._batch_cond.wait()
                if self._closing:
                    return
                record, index, problem, key = self._batch_backlog.popleft()
            # The cache may have filled since enqueueing (an identical item
            # earlier in the batch, or an interactive solve).
            cached = self._cached_report(key)
            if cached is not None:
                self._settle_batch_item(record, index, ITEM_CACHED, cached)
                continue
            job = Job(problem, cache_key=key)
            job.add_terminal_callback(
                lambda finished, r=record, i=index: self._on_batch_job(r, i, finished)
            )
            while True:
                try:
                    shared = self._coalesce_or_submit(job)
                    break
                except PoolSaturated:
                    if self._closing:
                        return
                    time.sleep(0.05)
            if shared is not job:
                # Coalesced onto an identical live job from another request
                # (or another item of this very batch).
                shared.add_terminal_callback(
                    lambda finished, r=record, i=index: self._on_batch_job(r, i, finished)
                )

    def _settle_batch_item(
        self,
        record: BatchRecord,
        index: int,
        status: str,
        report: Optional[Dict[str, Any]],
        error: Optional[str] = None,
    ) -> None:
        regex = None
        if report and report.get("solutions"):
            regex = report["solutions"][0].get("regex")
        record.update_item(index, status, regex=regex, error=error)

    def _on_batch_job(self, record: BatchRecord, index: int, job: Job) -> None:
        """Terminal-job hook persisting the batch item's outcome."""
        if job.status == JOB_DONE:
            report = job.report or {}
            status = ITEM_SOLVED if report.get("solved") else ITEM_UNSOLVED
            self._settle_batch_item(record, index, status, report)
        elif job.status == JOB_FAILED:
            self._settle_batch_item(
                record, index, ITEM_FAILED, None, error=(job.error or "engine error")[:500]
            )
        else:  # cancelled (e.g. shutdown): stays queued so a resume re-ingests
            record.release(index)

    def _ingest_line(self, record: BatchRecord, index: int, raw: str) -> str:
        """Validate + route one NDJSON line; returns the item's initial status.

        ``index == len(record)`` appends; ``index < len(record)`` replaces a
        stranded ``queued`` item (re-ingestion after a server restart).
        """
        replacing = index < len(record)

        def settle(status: str, **extra: Any) -> str:
            if replacing:
                record.update_item(index, status, **extra)
            else:
                record.append_item(status, **extra)
            return status

        try:
            # Chaos hook: an injected ``batch.ingest`` fault is the ingest
            # path's own I/O failing mid-item.  The item settles as a typed
            # failure — surfaced in the receipt, never silently dropped.
            fault_point("batch.ingest")
        except OSError as exc:
            return settle(ITEM_FAILED, error=f"ingest failed: {exc}")
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            return settle(ITEM_FAILED, error=f"malformed JSON: {exc}")
        try:
            problem = problem_from_data(data, max_budget=self.config.max_budget)
        except WireError as exc:
            return settle(ITEM_FAILED, error=str(exc))
        diagnostic = problem_unsatisfiable(problem)
        if diagnostic is not None:
            return settle(ITEM_FAILED, error=diagnostic.message)
        key = problem.cache_key()
        cached = self._cached_report(key)
        if cached is not None:
            regex = None
            if cached.get("solutions"):
                regex = cached["solutions"][0].get("regex")
            return settle(ITEM_CACHED, cache_key=key, regex=regex)
        settle(ITEM_QUEUED, cache_key=key)
        record.mark_live(index)
        with self._batch_cond:
            self._batch_backlog.append((record, index, problem, key))
            self._batch_cond.notify()
        return ITEM_QUEUED

    def handle_batch_submit(
        self, body: bytes, batch_id: Optional[str] = None, offset: int = 0
    ) -> Response:
        """``POST /v1/batch[?batch=<id>&offset=<n>]`` — bulk NDJSON ingestion.

        The body is one Problem dict per line.  Without ``batch`` a new batch
        is created; with it, lines are resumed into the existing record: line
        ``i`` of this request is item ``offset + i`` of the batch, indexes
        the record already ingested are skipped (unless stranded in
        ``queued`` with no live job — a server restart — in which case they
        are re-ingested), and an offset beyond the record's end is rejected
        because it would leave a gap of unknown items.
        """
        self.count("batch.submit")
        if offset < 0:
            return 400, error_body("bad_offset", "offset must be >= 0")
        if batch_id is None:
            if offset:
                return 400, error_body(
                    "bad_offset", "offset requires an existing batch id"
                )
            record = self.batches.create()
        else:
            record = self.batches.get(batch_id)
            if record is None:
                return 404, error_body("not_found", f"no such batch: {batch_id}")
        if offset > len(record):
            return 409, error_body(
                "bad_offset",
                f"offset {offset} would leave a gap (batch has {len(record)} items)",
            )
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError as exc:
            return 400, error_body("bad_request", f"body is not UTF-8: {exc}")
        self._ensure_feeder()
        statuses = []
        ingested = skipped = 0
        for i, raw in enumerate(line for line in text.splitlines() if line.strip()):
            index = offset + i
            if index < len(record) and not record.needs_reingest(index):
                statuses.append(record.status_of(index))
                skipped += 1
                continue
            statuses.append(self._ingest_line(record, index, raw))
            ingested += 1
        payload = record.summary()
        payload["schema"] = WIRE_SCHEMA
        payload["ingested"] = ingested
        payload["skipped"] = skipped
        payload["statuses"] = statuses
        return 202, payload

    def handle_batch_get(
        self, batch_id: str, offset: int = 0, limit: int = 100
    ) -> Response:
        """``GET /v1/batch/{id}?offset=<n>&limit=<n>`` — paginated statuses."""
        self.count("batch.get")
        if offset < 0 or limit < 1:
            return 400, error_body(
                "bad_offset", "offset must be >= 0 and limit >= 1"
            )
        record = self.batches.get(batch_id)
        if record is None:
            return 404, error_body("not_found", f"no such batch: {batch_id}")
        payload = record.page(offset=offset, limit=min(limit, 1000))
        payload["schema"] = WIRE_SCHEMA
        return 200, payload

    def health(self) -> Dict[str, Any]:
        """Aggregate health: ``ok`` or ``degraded``, with per-subsystem detail.

        ``degraded`` means still serving, at reduced fidelity: an open cache
        breaker (every request is a miss) or a wedged worker (capacity down
        by one).  Orchestrators should keep routing traffic but alert.
        """
        subsystems = {
            "cache": "ok" if self.cache.healthy() else "degraded",
            "pool": "ok" if self.pool.healthy() else "degraded",
        }
        degraded = any(value != "ok" for value in subsystems.values())
        return {
            "status": "degraded" if degraded else "ok",
            "subsystems": subsystems,
        }

    def handle_healthz(self) -> Response:
        """``GET /v1/healthz`` — liveness, with degradation detail."""
        payload: Dict[str, Any] = self.health()
        payload["schema"] = WIRE_SCHEMA
        payload["uptime_seconds"] = time.time() - self.started
        return 200, payload

    def handle_stats(self) -> Response:
        """``GET /v1/stats`` — cache, pool, and request counters."""
        self.count("stats")
        with self._jobs_lock:
            tracked = len(self._jobs)
        with self._counters_lock:
            requests = dict(self.requests)
        return 200, {
            "schema": WIRE_SCHEMA,
            "uptime_seconds": time.time() - self.started,
            "requests": requests,
            "cache": self.cache.stats(),
            "pool": self.pool.stats(),
            "jobs": {"tracked": tracked},
            "batches": {
                "tracked": len(self.batches),
                "backlog": len(self._batch_backlog),
                **self.batches.stats(),
            },
            "health": self.health(),
            "faults": fault_stats(),
        }

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        # Stop the feeder before the pool: nothing new must enter the queue
        # while the pool cancels and joins.  Backlogged items stay ``queued``
        # in their (persisted) records, so a restart + resume picks them up.
        # Idempotent: SIGTERM handling and test teardown may both get here.
        with self._batch_cond:
            if self._closing:
                return
            self._closing = True
            self._batch_cond.notify_all()
        if self._batch_feeder_thread is not None:
            self._batch_feeder_thread.join(timeout=5.0)
        self.pool.close()
