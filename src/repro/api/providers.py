"""Pluggable sketch providers.

A :class:`SketchProvider` turns a :class:`~repro.api.problem.Problem` into the
ranked list of hierarchical sketches the scheduler runs PBE engines over.
The three implementations cover the tool's three modes:

* :class:`NlSketchProvider` — the full Regel front end: the semantic parser
  maps the English description to ranked h-sketches (Figure 1),
* :class:`StaticSketchProvider` — user-supplied sketches in the textual
  notation (what the ablations and gold-sketch experiments need, replacing
  the old ``sketches=`` keyword override),
* :class:`PbeOnlyProvider` — a single unconstrained hole, i.e. the
  examples-only Regel-PBE baseline of Section 8.1.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, runtime_checkable

from repro.api.problem import Problem
from repro.sketch.ast import Hole, Sketch
from repro.sketch.parser import parse_sketch


@runtime_checkable
class SketchProvider(Protocol):
    """Anything that maps a problem to a ranked list of sketches."""

    def sketches(self, problem: Problem) -> List[Sketch]:
        """Ranked sketches for ``problem``, best first."""
        ...


class NlSketchProvider:
    """Sketches from the semantic parser (English description → h-sketches)."""

    def __init__(self, parser: Optional["SemanticParser"] = None, num_sketches: int = 25):
        from repro.nlp.sketch_gen import SemanticParser

        self.parser = parser or SemanticParser()
        self.num_sketches = num_sketches

    def sketches(self, problem: Problem) -> List[Sketch]:
        if not problem.description.strip():
            # No description to parse: fall back to examples-only synthesis.
            return [Hole(())]
        return self.parser.sketches(problem.description, k=self.num_sketches)


class StaticSketchProvider:
    """A fixed sketch list, given as ASTs or strings in the textual notation."""

    def __init__(self, sketches: Sequence["Sketch | str"]):
        self._sketches: List[Sketch] = [
            sketch if isinstance(sketch, Sketch) else parse_sketch(sketch)
            for sketch in sketches
        ]
        if not self._sketches:
            raise ValueError("StaticSketchProvider needs at least one sketch")

    def sketches(self, problem: Problem) -> List[Sketch]:
        return list(self._sketches)


class PbeOnlyProvider:
    """A single unconstrained hole: synthesis from examples only (Regel-PBE)."""

    def sketches(self, problem: Problem) -> List[Sketch]:
        return [Hole(())]
