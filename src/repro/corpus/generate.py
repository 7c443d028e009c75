"""Synthesis-problem generation from real-world corpus regexes.

Each corpus pattern that survives translation becomes a frozen
:class:`~repro.api.problem.Problem`:

* **positive examples** are sampled from the regex's language
  (:func:`repro.automata.sampling.sample_positive`),
* **negative examples** are near misses — mutations of the positives plus
  strings distinguishing the regex from a deliberately weakened variant
  (:func:`repro.automata.sampling.distinguishing_examples`),
* **h-sketches** are derived from the ground truth by *hole punching*:
  random subtrees (height- and count-bounded) are replaced by constrained
  holes whose components are the character classes the subtree mentions —
  exactly the shape a semantic parser would recover from a description,
* the **description** is the original pattern text, so the NL→sketch path
  can later be evaluated against the same problems.

Everything is deterministic under a fixed seed: each pattern gets its own
``random.Random`` seeded from ``(seed, pattern)``, so inserting or removing
corpus entries never perturbs the problems generated for the others.

Generated problems are *statically vetted* before they are emitted: a
problem whose example sets conflict, or whose every pinned sketch provably
rejects a positive example (:func:`repro.analysis.analyzer.facts_of_sketch`),
is dropped with a counted skip reason rather than shipped to the solver.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.api.problem import Problem
from repro.corpus.loader import CorpusEntry
from repro.corpus.translate import SkipPattern, translate_pattern
from repro.dsl import ast as rast
from repro.sketch import ast as sast
from repro.sketch.printer import sketch_to_string

#: Generation-level skip reasons (translator and sampler add their own).
SKIP_NO_POSITIVES = "no-positives"
SKIP_NO_NEGATIVES = "no-negatives"
SKIP_SKETCH_REJECTS = "sketch-rejects-positive"
SKIP_UNSATISFIABLE = "unsatisfiable"

#: Maximum components kept in a punched hole.
MAX_HOLE_COMPONENTS = 3


class GenerationSkip(Exception):
    """A per-entry reason problem generation was abandoned (counted, not fatal)."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the corpus → problems pipeline (all deterministic per seed)."""

    positives: int = 4
    negatives: int = 4
    #: Sketches pinned per problem (0 disables hole punching entirely).
    sketches: int = 2
    #: Holes punched per sketch.
    holes: int = 1
    #: Maximum *height* of a subtree that may be replaced by a hole.  Should
    #: not exceed the engine's completion depth or the sketch may not be able
    #: to regenerate the ground truth.
    hole_depth: int = 2
    seed: int = 0
    #: Problem parameters stamped onto every generated problem.
    budget: float = 10.0
    k: int = 1
    max_length: int = 18


@dataclass
class GenerationResult:
    """Problems generated plus per-reason counts for every skipped entry."""

    problems: List[Problem] = field(default_factory=list)
    skipped: Counter = field(default_factory=Counter)

    @property
    def total(self) -> int:
        return len(self.problems) + sum(self.skipped.values())


# ---------------------------------------------------------------------------
# Hole punching
# ---------------------------------------------------------------------------


def _height(regex: rast.Regex) -> int:
    children = regex.children() if hasattr(regex, "children") else ()
    return 1 + max((_height(child) for child in children), default=0)


def _subtree_sizes(regex: rast.Regex) -> List[Tuple[int, rast.Regex, int, int]]:
    """Pre-order ``(index, node, size, height)`` for every subtree.

    Indices (not node identity) address subtrees: DSL nodes are hash-consed,
    so two occurrences of ``<num>`` are the *same object* and only a
    positional addressing scheme can punch one without punching the other.
    """
    out: List[Tuple[int, rast.Regex, int, int]] = []

    def visit(node: rast.Regex) -> Tuple[int, int]:
        index = len(out)
        out.append((index, node, 0, 0))  # placeholder
        size = 1
        height = 0
        children = node.children() if hasattr(node, "children") else ()
        for child in children:
            child_size, child_height = visit(child)
            size += child_size
            height = max(height, child_height)
        out[index] = (index, node, size, height + 1)
        return size, height + 1

    visit(regex)
    return out


def _hole_for(subtree: rast.Regex) -> sast.Hole:
    """A constrained hole whose components are the subtree's character classes."""
    components: List[sast.Sketch] = []
    seen: set[rast.Regex] = set()
    for node in subtree.walk():
        if isinstance(node, rast.CharClass) and node not in seen:
            seen.add(node)
            components.append(sast.ConcreteRegexSketch(node))
            if len(components) >= MAX_HOLE_COMPONENTS:
                break
    return sast.Hole(components)


def punch_holes(
    regex: rast.Regex,
    rng: random.Random,
    holes: int = 1,
    hole_depth: int = 2,
) -> sast.Sketch:
    """Replace up to ``holes`` random subtrees of height ≤ ``hole_depth`` with
    constrained holes, producing an h-sketch the engine can complete back to
    (at least) the original regex."""
    nodes = _subtree_sizes(regex)
    candidates = [
        (index, node, size)
        for index, node, size, height in nodes
        if height <= hole_depth and index != 0
    ]
    targets: dict[int, rast.Regex] = {}
    covered: List[Tuple[int, int]] = []
    rng.shuffle(candidates)
    for index, node, size in candidates:
        if len(targets) >= holes:
            break
        if any(index < end and index + size > start for start, end in covered):
            continue
        targets[index] = node
        covered.append((index, index + size))
    if not targets:
        # Single-node regex (or nothing punchable): the whole thing is a hole.
        return _hole_for(regex)

    counter = [0]

    def rebuild(node: rast.Regex) -> sast.Sketch:
        index = counter[0]
        counter[0] += 1
        if index in targets:
            # Skip over the punched subtree's nodes in pre-order numbering.
            size = next(s for i, _, s, _ in nodes if i == index)
            counter[0] = index + size
            return _hole_for(node)
        if isinstance(node, (rast.StartsWith, rast.EndsWith, rast.Contains,
                             rast.Not, rast.Optional, rast.KleeneStar)):
            return sast.OpSketch(type(node).__name__, [rebuild(node.arg)])
        if isinstance(node, (rast.Concat, rast.Or, rast.And)):
            left = rebuild(node.left)
            right = rebuild(node.right)
            return sast.OpSketch(type(node).__name__, [left, right])
        if isinstance(node, rast.Repeat):
            return sast.IntOpSketch("Repeat", rebuild(node.arg), (node.count,))
        if isinstance(node, rast.RepeatAtLeast):
            return sast.IntOpSketch("RepeatAtLeast", rebuild(node.arg), (node.count,))
        if isinstance(node, rast.RepeatRange):
            return sast.IntOpSketch(
                "RepeatRange", rebuild(node.arg), (node.low, node.high)
            )
        return sast.ConcreteRegexSketch(node)

    return rebuild(regex)


# ---------------------------------------------------------------------------
# Example generation
# ---------------------------------------------------------------------------


def _weakened(regex: rast.Regex, rng: random.Random, hole_depth: int) -> Optional[rast.Regex]:
    """The regex with one random small subtree replaced by ``<any>*``.

    Over-approximates the language, so strings distinguishing it from the
    truth are guaranteed near-miss *negatives* for the original problem.
    """
    nodes = _subtree_sizes(regex)
    candidates = [
        (index, node, size)
        for index, node, size, height in nodes
        if height <= hole_depth and index != 0
    ]
    if not candidates:
        return None
    index, _, size = rng.choice(candidates)
    hole_filler = rast.KleeneStar(rast.ANY)
    counter = [0]

    def rebuild(node: rast.Regex) -> rast.Regex:
        position = counter[0]
        counter[0] += 1
        if position == index:
            counter[0] = position + size
            return hole_filler
        if isinstance(node, (rast.StartsWith, rast.EndsWith, rast.Contains,
                             rast.Not, rast.Optional, rast.KleeneStar)):
            return type(node)(rebuild(node.arg))
        if isinstance(node, (rast.Concat, rast.Or, rast.And)):
            left = rebuild(node.left)
            right = rebuild(node.right)
            return type(node)(left, right)
        if isinstance(node, rast.Repeat):
            return rast.Repeat(rebuild(node.arg), node.count)
        if isinstance(node, rast.RepeatAtLeast):
            return rast.RepeatAtLeast(rebuild(node.arg), node.count)
        if isinstance(node, rast.RepeatRange):
            return rast.RepeatRange(rebuild(node.arg), node.low, node.high)
        return node

    return rebuild(regex)


def problem_from_pattern(pattern: str, config: Optional[GeneratorConfig] = None) -> Problem:
    """Generate one vetted Problem from a raw corpus pattern.

    Raises :class:`~repro.corpus.translate.SkipPattern` or
    :class:`GenerationSkip` (both carrying a stable ``reason`` code) when the
    pattern cannot become a usable problem.
    """
    from repro.analysis.analyzer import facts_of_sketch
    from repro.analysis.diagnostics import problem_unsatisfiable
    from repro.automata.sampling import (
        EmptyLanguageError,
        UniversalLanguageError,
        distinguishing_examples,
        sample_negative,
        sample_positive,
    )
    from repro.sketch.parser import parse_sketch

    config = config or GeneratorConfig()
    regex = translate_pattern(pattern)
    rng = random.Random(f"{config.seed}|{pattern}")

    positives = sample_positive(regex, config.positives, rng, config.max_length)
    if not positives:
        raise GenerationSkip(SKIP_NO_POSITIVES, pattern)
    try:
        negatives = sample_negative(
            regex, config.negatives, rng, positives, config.max_length
        )
    except UniversalLanguageError as exc:
        raise GenerationSkip(exc.reason, pattern) from None
    except EmptyLanguageError as exc:
        raise GenerationSkip(exc.reason, pattern) from None
    if len(negatives) < config.negatives:
        # Top up with strings separating the truth from a weakened variant —
        # the sharpest near misses available (they sit just outside the
        # boundary a sloppy solution would blur).
        weak = _weakened(regex, rng, config.hole_depth)
        if weak is not None and weak != regex:
            try:
                for text, should_match in distinguishing_examples(
                    regex, weak, count=config.negatives, rng=rng
                ):
                    if not should_match and text not in negatives:
                        negatives.append(text)
            except (ValueError, RecursionError):
                pass
    if not negatives:
        raise GenerationSkip(SKIP_NO_NEGATIVES, pattern)
    negatives = sorted(negatives, key=lambda s: (len(s), s))[: config.negatives]

    sketch_texts: List[str] = []
    if config.sketches > 0:
        rejected = 0
        for _ in range(config.sketches * 2):
            if len(sketch_texts) >= config.sketches:
                break
            sketch = punch_holes(regex, rng, config.holes, config.hole_depth)
            text = sketch_to_string(sketch)
            if text in sketch_texts:
                continue
            # Round-trip through the textual notation (the Problem stores
            # text) and statically vet: a sketch whose facts reject a known
            # positive could never complete to the ground truth.
            facts = facts_of_sketch(parse_sketch(text), hole_depth=max(3, config.hole_depth))
            if any(facts.reject_reason(example) for example in positives):
                rejected += 1
                continue
            sketch_texts.append(text)
        if not sketch_texts:
            raise GenerationSkip(SKIP_SKETCH_REJECTS, pattern)

    problem = Problem(
        description=pattern,
        positive=positives,
        negative=negatives,
        k=config.k,
        budget=config.budget,
        sketches=sketch_texts,
    )
    if problem_unsatisfiable(problem) is not None:
        raise GenerationSkip(SKIP_UNSATISFIABLE, pattern)
    return problem


def generate_problems(
    entries: Iterable["CorpusEntry | str"],
    config: Optional[GeneratorConfig] = None,
) -> GenerationResult:
    """Run the full pipeline over corpus entries, counting every skip reason."""
    config = config or GeneratorConfig()
    result = GenerationResult()
    for entry in entries:
        pattern = entry.pattern if isinstance(entry, CorpusEntry) else entry
        try:
            result.problems.append(problem_from_pattern(pattern, config))
        except (SkipPattern, GenerationSkip) as exc:
            result.skipped[exc.reason] += 1
    return result
