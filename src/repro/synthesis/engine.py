"""The sketch-guided synthesis loop (Figure 9 of the paper).

:class:`Synthesizer` maintains a worklist of partial regexes, prioritised by
size, and processes each according to its kind:

* **concrete** regexes are checked against the examples and returned when
  consistent,
* **symbolic** regexes (no open nodes, but unknown integer constants) are
  handed to :func:`repro.synthesis.infer_constants.infer_constants`,
* otherwise one open node is selected and expanded by the rules of
  :mod:`repro.synthesis.expand`.

The worklist is lazy: an entry's work is done when it reaches the top.  An
expansion is pushed unbuilt, keyed by the size it will have, and is built,
deduplicated and put through the approximation check of Section 4.1 at the
top; a symbolic partial is pushed as one stream of constant models, advanced
one model at a time at the top.  The partials expanded, and their order, are
those of the eager loop: duplicates share a size and the earliest copy has the
smallest tick, and a partial's models share its size and consecutive ticks.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from itertools import count
from typing import List, Optional

# Re-exported under its retired name only because ``perfbench/tracing.py``
# still wraps ``engine.prune_checker``; the engine no longer calls it.
from repro.analysis.check import partial_prune_reason as prune_checker  # noqa: F401
from repro.dsl import ast as rast
from repro.dsl.printer import to_dsl_string
from repro.dsl.simplify import simplify, size as regex_size
from repro.sketch import ast as sast
from repro.solver import Solver
from repro.synthesis.approximate import APPROX_CACHE_STATS, infeasible
from repro.synthesis.config import EngineVariant, SynthesisConfig
from repro.synthesis.examples import Examples
from repro.synthesis.encode import ENCODE_CACHE_STATS
from repro.synthesis.expand import SymIntFactory, _expansions_of_label, initial_partial
# Kept as a module attribute only because ``perfbench/tracing.py`` still wraps
# ``engine.expand``; the engine builds each expansion in ``_settle``.
from repro.synthesis.expand import expand  # noqa: F401
from repro.synthesis.infer_constants import infer_constants
from repro.synthesis.partial import (
    PartialRegex,
    is_concrete,
    is_symbolic,
    open_nodes,
    partial_size,
    replace_node,
    to_regex,
)


#: Minimum wall-clock allowance for one resume of a symbolic-integer
#: enumeration, even when the scheduler's slice deadline has already passed.
_MIN_SYMBOLIC_SLICE = 0.05


@dataclass
class SynthesisResult:
    """Outcome of one synthesis run."""

    #: Consistent regexes found, best (smallest) first.
    regexes: List[rast.Regex] = field(default_factory=list)
    #: Whether the engine stopped because of the time budget.
    timed_out: bool = False
    #: Number of partial regexes taken off the worklist.
    expansions: int = 0
    #: Number of candidates discarded by the approximation check.  Only
    #: candidates that reached the top of the worklist are checked, so this
    #: counts none that the search stopped before reaching.
    pruned: int = 0
    #: Wall-clock time spent, in seconds.
    elapsed: float = 0.0
    #: Match-set evaluation cache hits/misses attributed to this run.
    eval_cache_hits: int = 0
    eval_cache_misses: int = 0
    #: Per-subtree approximation cache hits attributed to this run.
    approx_cache_hits: int = 0
    #: Solver propagation/conflict counts attributed to this run (the new
    #: bounds-propagating solver narrows domains instead of enumerating them;
    #: these counters are how that work is observed).
    solver_propagations: int = 0
    solver_conflicts: int = 0
    #: Figure-13 encoding-cache hits attributed to this run.
    encode_cache_hits: int = 0

    @property
    def solved(self) -> bool:
        return bool(self.regexes)

    @property
    def best(self) -> Optional[rast.Regex]:
        return self.regexes[0] if self.regexes else None


class SynthesisRun:
    """A resumable search over one sketch.

    The search state (worklist, memoisation sets, symbolic-integer factory,
    accumulated statistics) lives on this object, so the search can be driven
    in budget-chunked slices by a scheduler: :meth:`step` runs until its time
    or expansion slice is exhausted and returns, and a later :meth:`step`
    resumes exactly where the previous one stopped.  This is what lets the
    portfolio scheduler, :func:`repro.api.schedulers.interleave`, interleave
    many per-sketch engine instances inside one process.
    """

    def __init__(self, synthesizer: "Synthesizer", sketch: sast.Sketch, examples: Examples):
        self.config = synthesizer.config
        self.solver = synthesizer.solver
        self.sketch = sketch
        self.examples = examples
        self.result = SynthesisResult()
        self._literal_chars = examples.literal_characters()
        self._symints = SymIntFactory()
        self._counter = count()
        # Entries are (size, tick, partial, source): ``partial`` is None until
        # the entry is settled, and ``source`` is an unbuilt expansion (parent,
        # open node, subtree) or a model stream.  This lives in the entry, not
        # on the interned node, which is shared by runs with other examples.
        self._worklist: list[tuple] = []
        # Hash-consing makes structurally equal partials the same object, so
        # worklist dedup is a set of interned nodes (no string rendering).
        self._seen: set[PartialRegex] = set()
        # Membership-rejection store for the Section 6 subsumption short-cuts,
        # restructured for O(1) checks: rejected regexes (interned nodes), the
        # arguments of rejected Contains nodes, and the per-argument minimum
        # rejected RepeatAtLeast count.
        self._rejected: set[rast.Regex] = set()
        self._rejected_contains: set[rast.Regex] = set()
        self._rejected_atleast: dict[rast.Regex, int] = {}
        self._done = False
        self._push(1, initial_partial(sketch))  # the root is one open node

    @property
    def done(self) -> bool:
        """True once the search is exhausted, solved, or hit its expansion cap."""
        return self._done

    def _push(self, size: int, partial: Optional[PartialRegex] = None, source=None) -> None:
        heapq.heappush(self._worklist, (size, next(self._counter), partial, source))

    def _settle(self) -> bool:
        """Make the worklist's top a settled entry; False when empty.

        An expansion that reaches the top is built now.  A duplicate of one
        built earlier is dropped (not counted as pruned), an infeasible one is
        dropped and counted as pruned (neither as an expansion nor against a
        slice).  A stream of constant models that reaches the top is advanced
        by one candidate, and dropped when exhausted.  The settled top is
        written back in place under its key, which keeps the heap order.
        """
        worklist = self._worklist
        while worklist:
            size, tick, partial, source = worklist[0]
            if partial is not None:
                return True
            if isinstance(source, tuple):
                partial, source = replace_node(*source), None
                keep = partial not in self._seen
                self._seen.add(partial)
                if keep and infeasible(partial, self.examples, self.config):
                    self.result.pruned += 1
                    keep = False
            else:
                partial = next(source, None)
                keep = partial is not None
            if keep:
                worklist[0] = (size, tick, partial, source)
                return True
            heapq.heappop(worklist)
        return False

    def step(
        self, budget: float, max_expansions: Optional[int] = None
    ) -> SynthesisResult:
        """Advance the search by at most ``budget`` seconds / ``max_expansions`` pops.

        Returns the accumulated :class:`SynthesisResult`; statistics and
        ``elapsed`` aggregate across successive calls.  ``result.timed_out``
        is only set when the run hits the configuration's *global* expansion
        cap — a caller that abandons a paused run should set it itself.
        """
        config = self.config
        result = self.result
        examples = self.examples
        start = time.monotonic()
        deadline = self._deadline = start + budget
        slice_expansions = 0
        eval_hits_base, eval_misses_base = examples.eval_cache_stats()
        approx_hits_base = APPROX_CACHE_STATS.hits
        solver_stats = self.solver.stats
        propagations_base = solver_stats.propagations
        conflicts_base = solver_stats.conflicts
        encode_hits_base = ENCODE_CACHE_STATS.hits

        # Every read of the worklist below sees a settled top.
        while not self._done and self._settle():
            if result.expansions >= config.max_expansions:
                result.timed_out = True
                self._done = True
                break
            if time.monotonic() > deadline:
                break
            if max_expansions is not None and slice_expansions >= max_expansions:
                break
            size, tick, partial, source = heapq.heappop(self._worklist)
            if source is not None:
                # A model stream goes back under its key for its next model.
                heapq.heappush(self._worklist, (size, tick, None, source))
            result.expansions += 1
            slice_expansions += 1

            if is_concrete(partial):
                regex = to_regex(partial)
                if self._consistent(regex, examples):
                    result.regexes.append(simplify(regex))
                    if len(result.regexes) >= config.max_results:
                        self._done = True
                        break
                continue

            if is_symbolic(partial):
                if config.use_symbolic_ints:
                    # Bound each resume of the stream by the slice deadline,
                    # but always allow a small minimum so that very short
                    # slices still discover the next (smallest) model.
                    self._push(size, source=infer_constants(
                        partial, examples, config, self.solver,
                        deadline=lambda: max(self._deadline, time.monotonic() + _MIN_SYMBOLIC_SLICE)
                    ))
                # Without symbolic integers the expansion already enumerated
                # concrete constants, so a symbolic partial regex cannot occur.
                continue

            node = open_nodes(partial)[0]
            subtrees = _expansions_of_label(node.label, config, self._symints, self._literal_chars)
            for subtree in subtrees:
                self._push(size - 1 + partial_size(subtree), source=(partial, node, subtree))

        if not self._worklist:
            self._done = True
        result.elapsed += time.monotonic() - start
        eval_hits, eval_misses = examples.eval_cache_stats()
        result.eval_cache_hits += eval_hits - eval_hits_base
        result.eval_cache_misses += eval_misses - eval_misses_base
        result.approx_cache_hits += APPROX_CACHE_STATS.hits - approx_hits_base
        result.solver_propagations += solver_stats.propagations - propagations_base
        result.solver_conflicts += solver_stats.conflicts - conflicts_base
        result.encode_cache_hits += ENCODE_CACHE_STATS.hits - encode_hits_base
        # NB: result.regexes is append-only across steps (no re-sorting here);
        # incremental consumers rely on stable indices to detect new finds.
        return result

    def _consistent(self, regex: rast.Regex, examples: Examples) -> bool:
        """Membership check with the subsumption short-cuts of Section 6.

        Section 6 ("Eliminating membership queries"): if ``Contains(r)``
        rejects a positive example then so do ``StartsWith(r)`` and
        ``EndsWith(r)``; if ``RepeatAtLeast(r, k)`` rejects a positive example
        then so does ``RepeatAtLeast(r, k')`` for every ``k' >= k``.  The
        rejection store is keyed by interned nodes (plus a per-argument count
        threshold for the ``RepeatAtLeast`` family), so each check is O(1)
        instead of printing O(k) candidate strings.
        """
        if regex in self._rejected:
            return False
        if (
            isinstance(regex, (rast.StartsWith, rast.EndsWith))
            and regex.arg in self._rejected_contains
        ):
            return False
        if isinstance(regex, rast.RepeatAtLeast):
            threshold = self._rejected_atleast.get(regex.arg)
            if threshold is not None and regex.count >= threshold:
                return False
        if examples.consistent(regex):
            return True
        if not examples.accepts_all_positive(regex):
            self._rejected.add(regex)
            if isinstance(regex, rast.Contains):
                self._rejected_contains.add(regex.arg)
            elif isinstance(regex, rast.RepeatAtLeast):
                previous = self._rejected_atleast.get(regex.arg)
                if previous is None or regex.count < previous:
                    self._rejected_atleast[regex.arg] = regex.count
        return False


class Synthesizer:
    """Sketch-guided PBE engine (one instance per synthesis problem)."""

    def __init__(self, config: Optional[SynthesisConfig] = None):
        self.config = config or SynthesisConfig()
        self.solver = Solver()

    # -- public API ----------------------------------------------------------

    def start(self, sketch: sast.Sketch, examples: Examples) -> SynthesisRun:
        """Begin a resumable search; drive it with :meth:`SynthesisRun.step`."""
        return SynthesisRun(self, sketch, examples)

    def synthesize(self, sketch: sast.Sketch, examples: Examples) -> SynthesisResult:
        """Search for regexes that complete ``sketch`` and satisfy ``examples``."""
        run = self.start(sketch, examples)
        result = run.step(self.config.timeout)
        if not run.done:
            result.timed_out = True
        # Prefer smaller regexes among those found.
        result.regexes.sort(key=lambda regex: _regex_rank(regex))
        return result

def _regex_rank(regex: rast.Regex) -> tuple[int, str]:
    return regex_size(regex), to_dsl_string(regex)


def synthesize(
    sketch: sast.Sketch,
    positive: list[str],
    negative: list[str],
    config: Optional[SynthesisConfig] = None,
    variant: EngineVariant = EngineVariant.FULL,
) -> SynthesisResult:
    """Convenience one-shot synthesis entry point.

    ``variant`` selects between the full engine and the ablation variants
    (Regel-Approx / Regel-Enum) used in Figure 18.
    """
    config = (config or SynthesisConfig()).for_variant(variant)
    engine = Synthesizer(config)
    return engine.synthesize(sketch, Examples(positive, negative))
