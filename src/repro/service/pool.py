"""Bounded worker pool executing service jobs over the pipeline API.

One :class:`Job` wraps one :class:`~repro.api.Problem` with a lifecycle
(``queued → running → done | failed | cancelled``), a per-job
:class:`~repro.api.CancelToken`, and the list of solutions streamed so far —
the server-side mirror of :meth:`~repro.api.Session.iter_solutions`.

The pool itself is a fixed set of worker threads over a *bounded* queue:
when every worker is busy and the queue is full, :meth:`WorkerPool.submit`
raises :class:`PoolSaturated` and the HTTP layer answers 429 — back-pressure
instead of unbounded memory growth.  Each worker owns one long-lived
:class:`~repro.api.Session` (the session holds the trained semantic parser,
which is exactly the expensive state worth keeping warm); the session's
in-process scheduler (:func:`~repro.api.schedulers.interleave`) is what
enforces each job's wall-clock budget and per-sketch timeout, so deadline
enforcement needs no thread killing.  Shutdown is graceful: queued jobs are
cancelled, running jobs get their cancel tokens fired, and workers are
joined.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
import uuid
from typing import Any, Callable, Dict, List, Optional

from repro.api.problem import Problem
from repro.api.schedulers import CancelToken
from repro.api.session import Session
from repro.faults import fault_point
from repro.service.wire import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
)


class PoolSaturated(Exception):
    """Every worker is busy and the queue is full (HTTP 429)."""


class Job:
    """One queued/running/finished synthesis request."""

    def __init__(self, problem: Problem, cache_key: str = ""):
        self.id = uuid.uuid4().hex
        self.problem = problem
        self.cache_key = cache_key or problem.cache_key()
        self.status = JOB_QUEUED
        #: Solution dicts in discovery order, appended while running (what
        #: ``GET /v1/jobs/{id}`` pollers read as partial results).
        self.solutions: List[Dict[str, Any]] = []
        #: The final RunReport dict, present once the job is terminal.
        self.report: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        self.cancel = CancelToken()
        #: Distinguishes a client cancellation from the session cancelling
        #: its own token after collecting ``k`` solutions.
        self.cancel_requested = False
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._terminal_callbacks: List[Callable[["Job"], None]] = []

    @property
    def terminal(self) -> bool:
        return self.status in (JOB_DONE, JOB_FAILED, JOB_CANCELLED)

    def add_terminal_callback(self, callback: Callable[["Job"], None]) -> None:
        """Invoke ``callback(job)`` once the job reaches a terminal state.

        Registered under the job lock, so a callback is either queued for
        :meth:`finish` or — if the job is already terminal — run immediately;
        never lost in between.  Batch ingestion uses this to persist per-item
        outcomes, including when several batch items coalesce onto one job.
        """
        with self._lock:
            if not self.terminal:
                self._terminal_callbacks.append(callback)
                return
        callback(self)

    def add_solution(self, solution: Dict[str, Any]) -> None:
        with self._lock:
            self.solutions.append(solution)

    def request_cancel(self) -> None:
        self.cancel_requested = True
        self.cancel.cancel()

    def finish(
        self,
        status: str,
        report: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> bool:
        """Move to a terminal state; first caller wins, later calls are no-ops.

        Returns True iff this call performed the transition.  First-wins is
        what lets the pool watchdog settle a wedged job as ``failed`` without
        racing the worker: whichever side finishes first decides the outcome,
        and the loser's stats update is skipped.
        """
        with self._lock:
            if self.terminal:
                return False
            self.status = status
            self.report = report
            self.error = error
            self.finished = time.time()
            callbacks = self._terminal_callbacks
            self._terminal_callbacks = []
        self._done.set()
        for callback in callbacks:
            try:
                callback(self)
            except Exception:
                pass  # a failing observer must not fail the job
        return True

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job is terminal; False on timeout."""
        return self._done.wait(timeout)


class WorkerPool:
    """Fixed worker threads + bounded queue; one warm Session per worker."""

    def __init__(
        self,
        session_factory: Callable[[], Session],
        workers: int = 2,
        queue_size: int = 16,
        on_complete: Optional[Callable[[str, Dict[str, Any]], None]] = None,
        watchdog_grace: float = 10.0,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if watchdog_grace < 0:
            raise ValueError("watchdog_grace must be >= 0")
        self.session_factory = session_factory
        self.on_complete = on_complete
        self.watchdog_grace = watchdog_grace
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue(maxsize=queue_size)
        self._stopping = False
        self._stats_lock = threading.Lock()
        self._running: "set[Job]" = set()
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.rejected = 0
        self.watchdog_failed = 0
        self._busy = 0
        self._stop_event = threading.Event()
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"regel-worker-{index}", daemon=True
            )
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()
        self._watchdog = threading.Thread(
            target=self._watch, name="regel-watchdog", daemon=True
        )
        self._watchdog.start()

    # -- submission ----------------------------------------------------------

    def submit(self, job: Job) -> None:
        """Enqueue ``job``; raises :class:`PoolSaturated` when the queue is full."""
        if self._stopping:
            raise PoolSaturated("pool is shutting down")
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            with self._stats_lock:
                self.rejected += 1
            raise PoolSaturated(
                f"all workers busy and queue full ({self._queue.maxsize} pending)"
            ) from None
        with self._stats_lock:
            self.submitted += 1

    # -- worker loop ---------------------------------------------------------

    def _worker(self) -> None:
        session: Optional[Session] = None
        while True:
            job = self._queue.get()
            if job is None:  # shutdown sentinel
                return
            if job.cancel_requested:
                if job.finish(JOB_CANCELLED):
                    with self._stats_lock:
                        self.cancelled += 1
                continue
            if session is None:
                # Built lazily (and retried per job) so a failing factory
                # fails the job loudly instead of silently killing the
                # worker thread and stranding every future submission.
                try:
                    session = self.session_factory()
                except Exception:
                    if job.finish(JOB_FAILED, error=traceback.format_exc(limit=8)):
                        with self._stats_lock:
                            self.failed += 1
                    continue
            self._run(session, job)

    def _run(self, session: Session, job: Job) -> None:
        job.status = JOB_RUNNING
        job.started = time.time()
        with self._stats_lock:
            self._busy += 1
            self._running.add(job)
        try:
            # Chaos hook: a ``pool.job`` fault here is a worker failing (or,
            # with kind=hang, wedging) after pickup — the path the watchdog
            # and the client's retry/poll loops must survive.
            fault_point("pool.job", cancel=job.cancel)
            for solution in session.iter_solutions(job.problem, cancel=job.cancel):
                job.add_solution(solution.to_dict())
            report = session.last_report
            report.provenance = "engine"
            report.cache_key = job.cache_key
            if job.cancel_requested:
                report.cancelled = True
                if job.finish(JOB_CANCELLED, report=report.to_dict()):
                    with self._stats_lock:
                        self.cancelled += 1
            else:
                report_dict = report.to_dict()
                if self.on_complete is not None:
                    # Write-through happens BEFORE finish() wakes any waiting
                    # client: an immediate identical re-request must hit the
                    # cache.  A failing hook must not fail the solved job.
                    try:
                        self.on_complete(job.cache_key, report_dict)
                    except Exception:
                        pass
                if job.finish(JOB_DONE, report=report_dict):
                    with self._stats_lock:
                        self.completed += 1
        except Exception:
            if job.finish(JOB_FAILED, error=traceback.format_exc(limit=8)):
                with self._stats_lock:
                    self.failed += 1
        finally:
            with self._stats_lock:
                self._busy -= 1
                self._running.discard(job)

    # -- watchdog ------------------------------------------------------------

    def _watch(self) -> None:
        """Settle jobs stuck past ``budget + grace`` as ``failed``.

        The scheduler enforces budgets cooperatively, so a worker wedged in
        non-cooperative code (or an injected ``pool.job`` hang) would leave
        its job ``running`` forever and clients polling forever.  The
        watchdog fires the job's cancel token and — thanks to first-wins
        :meth:`Job.finish` — settles it as ``failed`` so pollers get a
        terminal answer even while the worker thread is still stuck.

        It polls every quarter of the grace, capped at 0.25 s and floored at
        10 ms so that a zero grace does not spin: a wedged job is settled
        within about 1.25 × grace past its deadline.
        """
        interval = max(0.01, min(0.25, self.watchdog_grace / 4))
        while not self._stop_event.wait(interval):
            now = time.time()
            with self._stats_lock:
                running = list(self._running)
            for job in running:
                started = job.started
                if started is None or job.terminal:
                    continue
                deadline = started + job.problem.budget + self.watchdog_grace
                if now < deadline:
                    continue
                job.request_cancel()
                stuck = now - started
                if job.finish(
                    JOB_FAILED,
                    error=(
                        f"watchdog: job exceeded budget {job.problem.budget:.1f}s"
                        f" + grace {self.watchdog_grace:.1f}s"
                        f" (running {stuck:.1f}s); worker presumed wedged"
                    ),
                ):
                    with self._stats_lock:
                        self.watchdog_failed += 1
                        self.failed += 1

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._stats_lock:
            # A terminal job still in _running means the watchdog settled it
            # but the worker thread hasn't come back: a wedged worker.
            wedged = sum(1 for job in self._running if job.terminal)
            return {
                "workers": len(self._threads),
                "busy_workers": self._busy,
                "wedged_workers": wedged,
                "queue_depth": self._queue.qsize(),
                "queue_capacity": self._queue.maxsize,
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "rejected": self.rejected,
                "watchdog_failed": self.watchdog_failed,
            }

    def healthy(self) -> bool:
        """False while any worker is wedged (``/v1/healthz: degraded``)."""
        with self._stats_lock:
            return not any(job.terminal for job in self._running)

    # -- shutdown ------------------------------------------------------------

    def close(self, timeout: float = 5.0) -> None:
        """Graceful shutdown: cancel queued + running jobs, join workers."""
        self._stopping = True
        self._stop_event.set()
        # Drain jobs still waiting in the queue: they never ran.
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            if job is not None:
                if job.finish(JOB_CANCELLED):
                    with self._stats_lock:
                        self.cancelled += 1
        # Fire the cancel token of every in-flight job; the scheduler honours
        # it cooperatively, so workers come back within one scheduling slice.
        with self._stats_lock:
            running = list(self._running)
        for job in running:
            job.request_cancel()
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._watchdog.join(timeout=timeout)
