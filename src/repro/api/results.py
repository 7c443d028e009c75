"""Result types of the pipeline API: :class:`Solution` and :class:`RunReport`.

Solutions carry the regex in the paper's DSL notation (which round-trips
through :func:`repro.dsl.parser.parse_regex`), so a :class:`RunReport` is a
pure-data record that serialises to JSON and back without loss — suitable for
batch outputs, service responses, and offline analysis of per-sketch
telemetry.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional

from repro.api.problem import Problem
from repro.dsl import ast as rast


@dataclass(frozen=True)
class Solution:
    """One consistent regex, as discovered during a run."""

    #: The regex in DSL notation (parse back with :meth:`ast`).
    regex: str
    #: AST size (the ranking key — smaller is better).
    size: int
    #: Index of the sketch whose engine instance found this regex.
    sketch_index: int
    #: Seconds since the start of the run when the regex was found.
    elapsed: float

    def ast(self) -> rast.Regex:
        """Parse the DSL string back into a regex AST."""
        from repro.dsl.parser import parse_regex

        return parse_regex(self.regex)

    def python_regex(self) -> Optional[str]:
        """The equivalent Python ``re`` pattern, or None outside the classical subset."""
        from repro.dsl.printer import UnsupportedConstructError, to_python_regex

        try:
            return to_python_regex(self.ast())
        except UnsupportedConstructError:
            return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "regex": self.regex,
            "size": self.size,
            "sketch_index": self.sketch_index,
            "elapsed": self.elapsed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Solution":
        return cls(
            regex=data["regex"],
            size=data["size"],
            sketch_index=data["sketch_index"],
            elapsed=data["elapsed"],
        )


@dataclass(frozen=True)
class SketchReport:
    """Per-sketch engine telemetry, recorded for every *attempted* sketch."""

    #: Position of the sketch in the provider's ranked list.
    index: int
    #: The sketch in textual notation.
    sketch: str
    #: Worklist expansions performed by this sketch's engine instance.
    expansions: int
    #: Candidates discarded by the approximation check when they reached the
    #: top of the worklist (candidates never reached are never checked).
    pruned: int
    #: Engine time spent on this sketch, in seconds.
    elapsed: float
    #: Whether this sketch's engine found at least one consistent regex.
    solved: bool
    #: Whether the engine was stopped by a budget or expansion cap.
    timed_out: bool
    #: Match-set evaluation cache hits/misses during this sketch's search
    #: (zero in reports produced before these counters existed).
    eval_cache_hits: int = 0
    eval_cache_misses: int = 0
    #: Per-subtree approximation cache hits during this sketch's search.
    approx_cache_hits: int = 0
    #: Solver propagation/conflict counts during this sketch's search (zero
    #: in reports produced before the propagation-based solver existed).
    solver_propagations: int = 0
    solver_conflicts: int = 0
    #: Figure-13 encoding-cache hits during this sketch's search.
    encode_cache_hits: int = 0

    # Counters of the retired static pre-filter and compiled-membership
    # evaluator.  Plain class attributes, not dataclass fields: always zero
    # and never serialised; they exist only because ``perfbench/tracing.py``
    # still reads them.  Older reports that carry them load fine, because
    # ``from_dict`` ignores unknown keys.
    static_prune_hits = 0
    static_prune_misses = 0
    dfa_cache_hits = 0
    dfa_compiled = 0
    dfa_compile_ms = 0.0

    @classmethod
    def from_result(cls, index: int, sketch: str, result: Any) -> "SketchReport":
        """The report of one engine run, its counters copied by field name.

        ``result`` is the run's :class:`~repro.synthesis.engine.SynthesisResult`;
        every field but ``index`` and ``sketch`` is read from it.
        """
        counters = {
            f.name: getattr(result, f.name)
            for f in fields(cls)
            if f.name not in ("index", "sketch")
        }
        return cls(index=index, sketch=sketch, **counters)

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SketchReport":
        # Fields without a default are required; counters added later
        # default to zero so older reports still load.
        return cls(
            **{
                f.name: data[f.name] if f.default is MISSING else data.get(f.name, f.default)
                for f in fields(cls)
            }
        )


@dataclass
class RunReport:
    """Aggregate outcome of solving one :class:`Problem`."""

    #: The problem this report answers.
    problem: Problem
    #: Distinct consistent regexes, smallest first (at most ``problem.k``).
    solutions: List[Solution] = field(default_factory=list)
    #: Telemetry for every sketch that was attempted.
    sketches: List[SketchReport] = field(default_factory=list)
    #: Total wall-clock time of the run, in seconds.
    elapsed: float = 0.0
    #: True when the run was cancelled before its budget elapsed.
    cancelled: bool = False
    #: Where the report came from: ``"engine"`` for a fresh synthesis run,
    #: ``"cache"`` when the service answered from its persistent result store.
    provenance: str = "engine"
    #: Canonical problem hash (set by the service; empty outside of it).
    cache_key: str = ""

    @property
    def solved(self) -> bool:
        return bool(self.solutions)

    @property
    def best(self) -> Optional[Solution]:
        return self.solutions[0] if self.solutions else None

    @property
    def sketches_tried(self) -> int:
        return len(self.sketches)

    @property
    def total_expansions(self) -> int:
        return sum(report.expansions for report in self.sketches)

    @property
    def total_pruned(self) -> int:
        return sum(report.pruned for report in self.sketches)

    @property
    def total_eval_cache_hits(self) -> int:
        return sum(report.eval_cache_hits for report in self.sketches)

    @property
    def total_solver_propagations(self) -> int:
        return sum(report.solver_propagations for report in self.sketches)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "problem": self.problem.to_dict(),
            "solutions": [solution.to_dict() for solution in self.solutions],
            "sketches": [report.to_dict() for report in self.sketches],
            "elapsed": self.elapsed,
            "cancelled": self.cancelled,
            "solved": self.solved,
            "provenance": self.provenance,
            "cache_key": self.cache_key,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunReport":
        return cls(
            problem=Problem.from_dict(data["problem"]),
            solutions=[Solution.from_dict(entry) for entry in data.get("solutions", [])],
            sketches=[SketchReport.from_dict(entry) for entry in data.get("sketches", [])],
            elapsed=data.get("elapsed", 0.0),
            cancelled=data.get("cancelled", False),
            provenance=data.get("provenance", "engine"),
            cache_key=data.get("cache_key", ""),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))
