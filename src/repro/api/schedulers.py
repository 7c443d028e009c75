"""Portfolio schedulers: how engine instances share the wall-clock budget.

The paper's tool runs one PBE engine *per sketch in parallel* and takes
results as they arrive.  A :class:`Scheduler` reproduces that portfolio
semantics under an explicit policy; each is a generator that yields
:class:`Found` events (a consistent regex, as soon as it is discovered) and
:class:`Finished` events (per-sketch telemetry), so consumers can stream
results before the budget elapses:

* :class:`InterleavedScheduler` — the default: round-robin turns of a fixed
  number of worklist pops over resumable
  :class:`~repro.synthesis.engine.SynthesisRun` instances, the paper's
  parallel semantics in a single process, with anytime behaviour,
* :class:`ProcessPoolScheduler` — a true multi-core portfolio over
  :mod:`multiprocessing`; problems and results cross the process boundary
  in their textual notation, so nothing non-picklable is shipped.
"""

from __future__ import annotations

import os
import queue
import time
from collections import deque
from dataclasses import asdict, dataclass, fields
from typing import Any, Iterator, List, Optional, Protocol, Sequence, Union, runtime_checkable

from repro.dsl import ast as rast
from repro.sketch.ast import Sketch
from repro.sketch.printer import sketch_to_string
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.engine import SynthesisResult, Synthesizer
from repro.synthesis.examples import Examples


@dataclass(frozen=True)
class Found:
    """A consistent regex discovered by the engine running sketch ``index``."""

    index: int
    regex: rast.Regex


@dataclass(frozen=True)
class Finished:
    """Sketch ``index`` will receive no more engine time; ``result`` is final."""

    index: int
    sketch: str
    result: SynthesisResult


SchedulerEvent = Union[Found, Finished]


class CancelToken:
    """Cooperative cancellation flag shared between a caller and a scheduler."""

    def __init__(self) -> None:
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled


@runtime_checkable
class Scheduler(Protocol):
    """Policy for spending one shared wall-clock budget across many sketches."""

    name: str

    def run(
        self,
        sketches: Sequence[Sketch],
        examples: Examples,
        config: SynthesisConfig,
        budget: float,
        cancel: CancelToken,
    ) -> Iterator[SchedulerEvent]:
        """Yield :class:`Found`/:class:`Finished` events until budget or cancellation."""
        ...


#: Worklist pops one turn of :class:`InterleavedScheduler` gives one run.
#: Every paused run keeps its search state alive, so shorter turns hold more
#: memory at once; under a 50-expansion cap a sketch finishes in one turn,
#: exactly as if the sketches ran one after another.
SLICE_EXPANSIONS = 50


class InterleavedScheduler:
    """Round-robin turns across all sketches' engines, in one process.

    This matches the paper's run-everything-in-parallel semantics without
    processes: every sketch makes progress early, so an easy sketch ranked
    behind a pathological one still gets engine time long before the budget
    runs out — the portfolio's anytime behaviour.  A turn steps one run by
    :data:`SLICE_EXPANSIONS` worklist pops; the wall clock only guards it: a
    turn lasts at most ``remaining budget / live runs`` and what is left of
    the run's own ``config.timeout``, and a run that has spent its timeout is
    finished as timed out.
    """

    name = "interleaved"

    def run(
        self,
        sketches: Sequence[Sketch],
        examples: Examples,
        config: SynthesisConfig,
        budget: float,
        cancel: CancelToken,
    ) -> Iterator[SchedulerEvent]:
        deadline = time.monotonic() + budget
        queue: deque = deque(
            [index, sketch, Synthesizer(config).start(sketch, examples), False]
            for index, sketch in enumerate(sketches)
        )
        while queue and not cancel.cancelled:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            entry = queue.popleft()
            index, sketch, run, _ = entry
            entry[3] = True  # this sketch has now received engine time
            result = run.result
            before = len(result.regexes)
            run.step(
                min(remaining / (len(queue) + 1), config.timeout - result.elapsed),
                SLICE_EXPANSIONS,
            )
            for regex in result.regexes[before:]:
                yield Found(index, regex)
            if not run.done and result.elapsed < config.timeout:
                queue.append(entry)
                continue
            if not run.done:
                result.timed_out = True
            yield Finished(index, sketch_to_string(sketch), result)
        # Sketches that received at least one turn were attempted but ran out
        # of budget (or the caller cancelled); never-started sketches are not
        # reported, so telemetry counts genuine attempts only.  Not reached
        # when the consumer closes the generator — a closed stream cannot
        # accept further telemetry anyway.
        while queue:
            index, sketch, run, started = queue.popleft()
            if not started:
                continue
            run.result.timed_out = True
            yield Finished(index, sketch_to_string(sketch), run.result)


#: Per-sketch "has started" flags shared with the parent; set only inside a
#: worker process, by the pool initializer (shared memory cannot travel with
#: a task, only with the worker's start).
_started: Any = None


def _init_worker(started: Any) -> None:
    global _started
    _started = started


def _solve_sketch_worker(
    index: int,
    sketch_text: str,
    positive: List[str],
    negative: List[str],
    config_dict: dict,
    deadline: float,
) -> dict:
    """Worker entry point: everything crossing the boundary is plain data.

    ``deadline`` is a ``time.monotonic`` timestamp; CLOCK_MONOTONIC is
    system-wide on the supported platforms, so a worker that starts late (a
    second wave behind a full pool) sees only the remaining portfolio budget
    instead of restarting the clock.
    """
    from repro.dsl.printer import to_dsl_string
    from repro.sketch.parser import parse_sketch

    _started[index] = 1
    config = SynthesisConfig(**config_dict)
    config.timeout = max(0.05, min(config.timeout, deadline - time.monotonic()))
    engine = Synthesizer(config)
    result = engine.synthesize(
        parse_sketch(sketch_text),
        Examples(positive, negative),
    )
    payload = {f.name: getattr(result, f.name) for f in fields(result)}
    payload["regexes"] = [to_dsl_string(regex) for regex in result.regexes]
    return payload


def _pool_width(sketches: int) -> int:
    """One worker per usable CPU, but no more workers than sketches."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform reports an affinity mask
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, sketches))


class ProcessPoolScheduler:
    """Portfolio over worker processes: one process-pool task per sketch.

    The pool has one worker per CPU this process may run on, capped by the
    number of sketches, and each sketch gets the whole remaining budget (the
    workers run concurrently, as in the paper's parallel deployment).
    Sketches and regexes cross the process boundary in their textual
    notation, which round-trips exactly.  When :meth:`run` ends — budget
    spent, ``k`` reached or the stream closed — workers still searching are
    terminated, so no engine outlives its request.
    """

    name = "process-pool"

    #: Extra seconds allowed for workers to notice their own deadline.
    grace = 2.0

    def run(
        self,
        sketches: Sequence[Sketch],
        examples: Examples,
        config: SynthesisConfig,
        budget: float,
        cancel: CancelToken,
    ) -> Iterator[SchedulerEvent]:
        import multiprocessing

        from repro.dsl.parser import parse_regex

        deadline = time.monotonic() + budget
        config_dict = asdict(config)
        positive = list(examples.positive)
        negative = list(examples.negative)
        texts = [sketch_to_string(sketch) for sketch in sketches]
        # Forking this process is unsafe once it runs threads (the service
        # does), so workers fork from a single-threaded server process that
        # has already imported the engine; that avoids a fresh import per
        # worker as well.
        context = multiprocessing.get_context("forkserver")
        context.set_forkserver_preload([__name__])
        started = context.RawArray("b", len(texts))
        finished: "queue.SimpleQueue[tuple[int, Optional[dict]]]" = queue.SimpleQueue()
        pool = context.Pool(
            _pool_width(len(texts)), initializer=_init_worker, initargs=(started,)
        )
        try:
            for index, text in enumerate(texts):
                pool.apply_async(
                    _solve_sketch_worker,
                    (index, text, positive, negative, config_dict, deadline),
                    callback=lambda payload, index=index: finished.put((index, payload)),
                    # A worker crash counts as an unsolved, exhausted sketch.
                    error_callback=lambda _, index=index: finished.put((index, None)),
                )
            pending = set(range(len(texts)))
            while pending and not cancel.cancelled:
                wait = deadline + self.grace - time.monotonic()
                if wait <= 0:
                    break
                try:
                    index, payload = finished.get(timeout=min(0.1, wait))
                except queue.Empty:
                    continue
                pending.discard(index)
                if payload is None:
                    yield Finished(index, texts[index], SynthesisResult(timed_out=True))
                    continue
                payload["regexes"] = [parse_regex(text) for text in payload["regexes"]]
                result = SynthesisResult(**payload)
                for regex in result.regexes:
                    yield Found(index, regex)
                yield Finished(index, texts[index], result)
            for index in sorted(pending):
                if started[index]:  # never-started sketches are not attempts
                    yield Finished(index, texts[index], SynthesisResult(timed_out=True))
        finally:
            pool.terminate()


#: Registry used by the CLI's ``--scheduler`` flag.
SCHEDULERS = {
    "interleaved": InterleavedScheduler,
    "process-pool": ProcessPoolScheduler,
}


def make_scheduler(name: str) -> Scheduler:
    """Instantiate a scheduler by registry name (see :data:`SCHEDULERS`)."""
    try:
        factory = SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(SCHEDULERS)}"
        ) from None
    return factory()
