"""Top-level Regel tool (Section 6, "Implementation").

.. deprecated::
    :class:`Regel` is now a thin compatibility shim over the pipeline API in
    :mod:`repro.api` (``Problem`` → ``SketchProvider`` → ``Scheduler`` →
    ``Session``).  New code should build a :class:`repro.api.Session` and
    call :meth:`~repro.api.session.Session.solve` or stream results with
    :meth:`~repro.api.session.Session.iter_solutions`.

Workflow (unchanged semantics): the semantic parser generates up to 500
derivations, which are de-duplicated and ranked into at most 25 sketches; one
PBE engine instance is run per sketch against a shared wall-clock budget —
the paper runs the instances in parallel, which the pipeline API reproduces
with its interleaved and process-pool schedulers; results are de-duplicated
and the smallest ``k`` consistent regexes are returned.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.api.problem import Problem
from repro.api.providers import NlSketchProvider, StaticSketchProvider
from repro.api.results import RunReport
from repro.api.schedulers import InterleavedScheduler, Scheduler
from repro.api.session import Session
from repro.dsl import ast as rast
from repro.nlp.sketch_gen import SemanticParser
from repro.sketch.ast import Hole, Sketch
from repro.synthesis import SynthesisConfig
from repro.synthesis.config import EngineVariant


@dataclass
class RegelResult:
    """Outcome of one Regel invocation."""

    #: Up to ``k`` regexes consistent with the examples, smallest first.
    regexes: List[rast.Regex] = field(default_factory=list)
    #: Number of sketches the PBE engine attempted within the budget.
    sketches_tried: int = 0
    #: Total wall-clock time in seconds.
    elapsed: float = 0.0
    #: Per-sketch synthesis times (seconds) for **every attempted** sketch,
    #: in attempt order (historically only solved sketches were recorded,
    #: which overstated the tool's speed).
    per_sketch_times: List[float] = field(default_factory=list)
    #: Parallel to :attr:`per_sketch_times`: whether that sketch solved.
    per_sketch_solved: List[bool] = field(default_factory=list)

    @property
    def solved(self) -> bool:
        return bool(self.regexes)

    @property
    def best(self) -> Optional[rast.Regex]:
        return self.regexes[0] if self.regexes else None

    @property
    def solved_sketch_times(self) -> List[float]:
        """Times of the sketches that produced a solution (the old metric)."""
        return [
            elapsed
            for elapsed, solved in zip(self.per_sketch_times, self.per_sketch_solved)
            if solved
        ]

    @classmethod
    def from_report(cls, report: RunReport) -> "RegelResult":
        """Convert a pipeline :class:`~repro.api.results.RunReport`."""
        ordered = sorted(report.sketches, key=lambda sketch: sketch.index)
        return cls(
            regexes=[solution.ast() for solution in report.solutions],
            sketches_tried=report.sketches_tried,
            elapsed=report.elapsed,
            per_sketch_times=[sketch.elapsed for sketch in ordered],
            per_sketch_solved=[sketch.solved for sketch in ordered],
        )


class Regel:
    """Multi-modal regex synthesizer: English description + examples.

    .. deprecated:: use :class:`repro.api.Session` instead.
    """

    def __init__(
        self,
        parser: Optional[SemanticParser] = None,
        config: Optional[SynthesisConfig] = None,
        num_sketches: int = 25,
        variant: EngineVariant = EngineVariant.FULL,
        scheduler: Optional[Scheduler] = None,
    ):
        self.parser = parser or SemanticParser()
        self.config = config or SynthesisConfig()
        self.num_sketches = num_sketches
        self.variant = variant
        #: Portfolio policy.  The default interleaved scheduler reproduces the
        #: paper's run-one-engine-per-sketch-in-parallel semantics in-process.
        self.scheduler = scheduler if scheduler is not None else InterleavedScheduler()

    def synthesize(
        self,
        description: str,
        positive: Sequence[str],
        negative: Sequence[str],
        k: int = 1,
        time_budget: Optional[float] = None,
        sketches: Optional[Sequence[Sketch]] = None,
    ) -> RegelResult:
        """Synthesize up to ``k`` regexes within ``time_budget`` seconds.

        ``sketches`` overrides the semantic parser's output (used by the
        ablations and by Regel-PBE, which always passes a single
        unconstrained hole).  Deprecated: build a
        :class:`repro.api.Problem` and a :class:`repro.api.Session` —
        sketch overrides become a
        :class:`repro.api.StaticSketchProvider`.
        """
        warnings.warn(
            "Regel.synthesize is deprecated; use repro.api.Session.solve "
            "with a repro.api.Problem instead",
            DeprecationWarning,
            stacklevel=2,
        )
        if sketches is not None and not list(sketches):
            # Historical behaviour: an explicitly empty sketch list means
            # nothing to try — return an immediate unsolved result rather
            # than falling back to examples-only synthesis.
            return RegelResult()
        report = self._session(sketches).solve(
            Problem(
                description=description,
                positive=positive,
                negative=negative,
                k=k,
                budget=time_budget if time_budget is not None else self.config.timeout,
                variant=self.variant,
            )
        )
        return RegelResult.from_report(report)

    def _session(self, sketches: Optional[Sequence[Sketch]] = None) -> Session:
        """The equivalent pipeline session for this (deprecated) facade."""
        if sketches is not None:
            provider = StaticSketchProvider(list(sketches))
        else:
            provider = NlSketchProvider(self.parser, num_sketches=self.num_sketches)
        return Session(provider=provider, scheduler=self.scheduler, config=self.config)


def pbe_only_sketches() -> List[Sketch]:
    """The sketch list used by the Regel-PBE baseline: one unconstrained hole."""
    return [Hole(())]
