"""Portfolio schedulers: how engine instances share the wall-clock budget.

The paper's tool runs one PBE engine *per sketch in parallel* and takes
results as they arrive.  A :class:`Scheduler` reproduces that portfolio
semantics under an explicit policy; each is a generator that yields
:class:`Found` events (a consistent regex, as soon as it is discovered) and
:class:`Finished` events (per-sketch telemetry), so consumers can stream
results before the budget elapses:

* :class:`SequentialScheduler` — one engine after another; each sketch gets
  a *fair* slice ``min(per_sketch_cap, remaining)`` of the shared budget, so
  a pathological first sketch cannot eat the whole budget,
* :class:`InterleavedScheduler` — round-robin time slices over resumable
  :class:`~repro.synthesis.engine.SynthesisRun` instances: the paper's
  parallel semantics in a single process, with anytime behaviour,
* :class:`ProcessPoolScheduler` — a true multi-core portfolio via
  :mod:`concurrent.futures`; problems and results cross the process boundary
  in their textual notation, so nothing non-picklable is shipped.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import asdict, dataclass, fields
from typing import Iterator, List, Optional, Protocol, Sequence, Union, runtime_checkable

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


class SequentialScheduler:
    """Run one engine per sketch, in rank order, against the shared budget.

    Each sketch gets the slice ``min(per_sketch_cap, remaining)``; unused
    time flows to later sketches because the cap is recomputed as
    ``remaining / sketches_left``.  An explicit ``per_sketch_cap`` fixes the
    cap instead.
    """

    name = "sequential"

    def __init__(self, per_sketch_cap: Optional[float] = None):
        self.per_sketch_cap = per_sketch_cap

    def run(
        self,
        sketches: Sequence[Sketch],
        examples: Examples,
        config: SynthesisConfig,
        budget: float,
        cancel: CancelToken,
    ) -> Iterator[SchedulerEvent]:
        deadline = time.monotonic() + budget
        total = len(sketches)
        for position, sketch in enumerate(sketches):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or cancel.cancelled:
                break
            cap = (
                self.per_sketch_cap
                if self.per_sketch_cap is not None
                else remaining / (total - position)
            )
            slice_budget = min(cap, remaining, config.timeout)
            run = Synthesizer(config).start(sketch, examples)
            result = run.step(slice_budget)
            if not run.done:
                result.timed_out = True
            for regex in result.regexes:
                yield Found(position, regex)
            yield Finished(position, sketch_to_string(sketch), result)


class InterleavedScheduler:
    """Round-robin time slices across all sketches' engines, in one process.

    This matches the paper's run-everything-in-parallel semantics without
    processes: every sketch makes progress early, so an easy sketch ranked
    behind a pathological one still gets engine time long before the budget
    runs out — the portfolio's anytime behaviour.  ``slice_seconds`` bounds
    each turn's wall-clock slice and ``slice_expansions`` (optional) bounds it
    deterministically in worklist pops.
    """

    name = "interleaved"

    def __init__(
        self, slice_seconds: float = 0.2, slice_expansions: Optional[int] = None
    ):
        if slice_seconds <= 0:
            raise ValueError("slice_seconds must be positive")
        self.slice_seconds = slice_seconds
        self.slice_expansions = slice_expansions

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
            slice_budget = min(self.slice_seconds, deadline - time.monotonic())
            if slice_budget <= 0:
                break
            entry = queue.popleft()
            index, sketch, run, _ = entry
            entry[3] = True  # this sketch has now received engine time
            before = len(run.result.regexes)
            run.step(slice_budget, self.slice_expansions)
            for regex in run.result.regexes[before:]:
                yield Found(index, regex)
            if run.done:
                yield Finished(index, sketch_to_string(sketch), run.result)
            else:
                queue.append(entry)
        # Sketches that received at least one slice were attempted but ran out
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


def _solve_sketch_worker(
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


class ProcessPoolScheduler:
    """True multi-core portfolio: one worker process per sketch.

    Each worker gets the whole remaining budget (the workers run
    concurrently, as in the paper's parallel deployment).  Sketches and
    regexes are shipped across the process boundary in their textual
    notation, which round-trips exactly and keeps the futures picklable.
    """

    name = "process-pool"

    #: Extra seconds allowed for workers to notice their own deadline.
    grace = 2.0

    def __init__(self, max_workers: Optional[int] = None):
        self.max_workers = max_workers

    def run(
        self,
        sketches: Sequence[Sketch],
        examples: Examples,
        config: SynthesisConfig,
        budget: float,
        cancel: CancelToken,
    ) -> Iterator[SchedulerEvent]:
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        from repro.dsl.parser import parse_regex

        deadline = time.monotonic() + budget
        config_dict = asdict(config)
        positive = list(examples.positive)
        negative = list(examples.negative)
        max_workers = self.max_workers or min(8, max(1, len(sketches)))
        pool = ProcessPoolExecutor(max_workers=max_workers)
        try:
            futures = {
                pool.submit(
                    _solve_sketch_worker,
                    sketch_to_string(sketch),
                    positive,
                    negative,
                    config_dict,
                    deadline,
                ): (index, sketch)
                for index, sketch in enumerate(sketches)
            }
            pending = set(futures)
            while pending and not cancel.cancelled:
                overtime = time.monotonic() - deadline
                if overtime > self.grace:
                    break
                done, pending = wait(pending, timeout=0.1, return_when=FIRST_COMPLETED)
                for future in done:
                    index, sketch = futures[future]
                    try:
                        payload = future.result()
                    except Exception:
                        # A worker crash counts as an unsolved, exhausted sketch.
                        yield Finished(
                            index, sketch_to_string(sketch), SynthesisResult(timed_out=True)
                        )
                        continue
                    payload["regexes"] = [parse_regex(text) for text in payload["regexes"]]
                    result = SynthesisResult(**payload)
                    for regex in result.regexes:
                        yield Found(index, regex)
                    yield Finished(index, sketch_to_string(sketch), result)
            for future in pending:
                index, sketch = futures[future]
                if future.cancel():
                    # Never started: not an attempt, so no telemetry entry.
                    continue
                yield Finished(
                    index, sketch_to_string(sketch), SynthesisResult(timed_out=True)
                )
        finally:
            pool.shutdown(wait=False, cancel_futures=True)


#: Registry used by the CLI's ``--scheduler`` flag.
SCHEDULERS = {
    "sequential": SequentialScheduler,
    "interleaved": InterleavedScheduler,
    "process-pool": ProcessPoolScheduler,
}


def make_scheduler(name: str, **kwargs) -> Scheduler:
    """Instantiate a scheduler by registry name (see :data:`SCHEDULERS`)."""
    try:
        factory = SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(SCHEDULERS)}"
        ) from None
    return factory(**kwargs)
