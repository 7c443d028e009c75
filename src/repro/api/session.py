"""The :class:`Session` facade: provider + scheduler + engine configuration.

A session is the long-lived object an application holds on to (it owns the
trained semantic parser and the scheduling policy); individual requests are
immutable :class:`~repro.api.problem.Problem` values.  Two consumption
styles are offered:

* :meth:`Session.solve` — run to completion, return a full
  :class:`~repro.api.results.RunReport`,
* :meth:`Session.iter_solutions` — a generator that yields each
  :class:`~repro.api.results.Solution` the moment it is discovered
  (anytime/streaming behaviour); closing the generator cancels the
  underlying scheduler cooperatively, and the aggregated report for the
  partial run is available as :attr:`Session.last_report`.
"""

from __future__ import annotations

import time
from typing import Iterator, Optional

from repro.api.problem import Problem
from repro.api.providers import NlSketchProvider, SketchProvider
from repro.api.results import RunReport, SketchReport, Solution
from repro.api.schedulers import CancelToken, Found, Scheduler, SequentialScheduler
from repro.dsl.printer import to_dsl_string
from repro.dsl.simplify import size
from repro.synthesis.config import SynthesisConfig


class Session:
    """Reusable synthesis pipeline: sketch provider → scheduler → results."""

    def __init__(
        self,
        provider: Optional[SketchProvider] = None,
        scheduler: Optional[Scheduler] = None,
        config: Optional[SynthesisConfig] = None,
    ):
        self.provider = provider if provider is not None else NlSketchProvider()
        self.scheduler = scheduler if scheduler is not None else SequentialScheduler()
        self.config = config or SynthesisConfig()
        #: Report of the most recent (possibly cancelled) run.
        self.last_report: Optional[RunReport] = None

    def solve(self, problem: Problem, cancel: Optional[CancelToken] = None) -> RunReport:
        """Solve ``problem`` to completion and return the aggregated report."""
        report = RunReport(problem=problem, scheduler=self.scheduler.name)
        self.last_report = report
        for _ in self._stream(problem, cancel, report):
            pass
        return report

    def iter_solutions(
        self, problem: Problem, cancel: Optional[CancelToken] = None
    ) -> Iterator[Solution]:
        """Yield distinct solutions as they are discovered.

        Stops after ``problem.k`` distinct regexes, when the budget elapses,
        or when ``cancel`` fires.  Closing the generator early (or an
        exception in the consumer) cancels the scheduler cooperatively; the
        report of whatever was accomplished is kept in :attr:`last_report`
        (a convenience for single-consumer use — concurrent runs on one
        session should keep their own handle on the stream's report).
        Solutions are yielded in discovery order; in the final report they
        are re-ranked smallest-first (the paper's ordering).
        """
        report = RunReport(problem=problem, scheduler=self.scheduler.name)
        self.last_report = report
        yield from self._stream(problem, cancel, report)

    def _stream(
        self, problem: Problem, cancel: Optional[CancelToken], report: RunReport
    ) -> Iterator[Solution]:
        cancel = cancel or CancelToken()
        config = self.config.for_variant(problem.variant)
        start = time.monotonic()
        if problem.sketches:
            # Problem-pinned sketches (corpus-generated problems ship their
            # hole-punched sketches inline) take precedence over the provider.
            from repro.sketch.parser import parse_sketch

            sketches = [parse_sketch(text) for text in problem.sketches]
        else:
            sketches = self.provider.sketches(problem)
        events = self.scheduler.run(
            sketches, problem.examples(), config, problem.budget, cancel
        )
        seen: set[str] = set()
        try:
            for event in events:
                if isinstance(event, Found):
                    key = to_dsl_string(event.regex)
                    if key in seen or len(report.solutions) >= problem.k:
                        continue
                    seen.add(key)
                    solution = Solution(
                        regex=key,
                        size=size(event.regex),
                        sketch_index=event.index,
                        elapsed=time.monotonic() - start,
                    )
                    report.solutions.append(solution)
                    yield solution
                    if len(report.solutions) >= problem.k:
                        # Enough solutions: ask the scheduler to wind down (it
                        # still reports telemetry for in-flight sketches).
                        cancel.cancel()
                else:
                    result = event.result
                    report.sketches.append(
                        SketchReport(
                            index=event.index,
                            sketch=event.sketch,
                            expansions=result.expansions,
                            pruned=result.pruned,
                            elapsed=result.elapsed,
                            solved=result.solved,
                            timed_out=result.timed_out,
                            eval_cache_hits=result.eval_cache_hits,
                            eval_cache_misses=result.eval_cache_misses,
                            approx_cache_hits=result.approx_cache_hits,
                            solver_propagations=result.solver_propagations,
                            solver_conflicts=result.solver_conflicts,
                            encode_cache_hits=result.encode_cache_hits,
                        )
                    )
        except GeneratorExit:
            # The consumer closed the stream: cancel cooperatively.
            cancel.cancel()
            report.cancelled = True
            raise
        finally:
            events.close()
            report.elapsed = time.monotonic() - start
            report.solutions.sort(key=lambda solution: (solution.size, solution.regex))
