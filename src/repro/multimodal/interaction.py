"""Iterative example-feedback protocol (Section 8.1 methodology).

PBE tools are meant to be used interactively: the evaluation first runs each
tool on the benchmark's initial examples; if the intended regex is not among
the returned results, two additional examples are provided and the tool is
re-run, up to a maximum of four iterations.  The additional examples are
*distinguishing* strings on which the tool's best candidate and the ground
truth disagree (or fresh samples of the ground-truth language when the tool
returned nothing) — exactly the clarifying examples a user would add.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.automata.operations import regex_equivalent
from repro.automata.sampling import distinguishing_examples, sample_negative, sample_positive
from repro.datasets.benchmark import Benchmark
from repro.dsl import ast as rast


@dataclass
class IterationOutcome:
    """Result of one iteration of the interactive protocol."""

    iteration: int
    solved: bool
    elapsed: float
    num_positive: int
    num_negative: int
    returned: int


@dataclass
class InteractiveSession:
    """Full record of an interactive run on one benchmark."""

    benchmark_id: str
    outcomes: List[IterationOutcome] = field(default_factory=list)

    @property
    def solved_at(self) -> Optional[int]:
        """First iteration (0-based) at which the benchmark was solved, or None."""
        for outcome in self.outcomes:
            if outcome.solved:
                return outcome.iteration
        return None

    def solved_by(self, iteration: int) -> bool:
        solved = self.solved_at
        return solved is not None and solved <= iteration

    def time_at(self, iteration: int) -> Optional[float]:
        for outcome in self.outcomes:
            if outcome.iteration == iteration:
                return outcome.elapsed
        return None


def run_interactive(
    benchmark: Benchmark,
    solve: Callable[[Sequence[str], Sequence[str]], tuple[List[rast.Regex], float]],
    max_iterations: int = 4,
    examples_per_iteration: int = 2,
    rng: Optional[random.Random] = None,
) -> InteractiveSession:
    """Run the iterative protocol for one benchmark.

    ``solve(positive, negative)`` runs the tool and returns the candidate
    regexes plus the elapsed time; correctness is judged by language
    equivalence with the benchmark's gold regex (the "intended regex").
    """
    rng = rng or random.Random(zlib.crc32(benchmark.benchmark_id.encode()))
    gold = benchmark.regex
    positive = list(benchmark.positive)
    negative = list(benchmark.negative)
    session = InteractiveSession(benchmark.benchmark_id)

    for iteration in range(max_iterations + 1):
        candidates, elapsed = solve(positive, negative)
        solved = any(_safe_equivalent(candidate, gold) for candidate in candidates)
        session.outcomes.append(
            IterationOutcome(
                iteration=iteration,
                solved=solved,
                elapsed=elapsed,
                num_positive=len(positive),
                num_negative=len(negative),
                returned=len(candidates),
            )
        )
        if solved or iteration == max_iterations:
            break
        new_positive, new_negative = _additional_examples(
            gold, candidates, positive, negative, examples_per_iteration, rng
        )
        positive.extend(new_positive)
        negative.extend(new_negative)
    return session


def _safe_equivalent(candidate: rast.Regex, gold: rast.Regex) -> bool:
    try:
        return regex_equivalent(candidate, gold)
    except Exception:
        return False


def _additional_examples(
    gold: rast.Regex,
    candidates: List[rast.Regex],
    positive: List[str],
    negative: List[str],
    count: int,
    rng: random.Random,
) -> tuple[List[str], List[str]]:
    """Two clarifying examples for the next iteration."""
    new_positive: List[str] = []
    new_negative: List[str] = []
    known = set(positive) | set(negative)

    if candidates:
        try:
            pairs = distinguishing_examples(gold, candidates[0], count=count, rng=rng)
        except Exception:
            pairs = []
        for text, should_match in pairs:
            if text in known:
                continue
            known.add(text)
            (new_positive if should_match else new_negative).append(text)

    # Top up with fresh samples of the gold language / complement.
    while len(new_positive) + len(new_negative) < count:
        needed = count - len(new_positive) - len(new_negative)
        extra_pos = [
            s for s in sample_positive(gold, needed + len(known), rng) if s not in known
        ]
        extra_neg = [
            s
            for s in sample_negative(gold, needed + len(known), rng, positives=positive or None)
            if s not in known
        ]
        progress = False
        if extra_pos:
            new_positive.append(extra_pos[0])
            known.add(extra_pos[0])
            progress = True
        if len(new_positive) + len(new_negative) < count and extra_neg:
            new_negative.append(extra_neg[0])
            known.add(extra_neg[0])
            progress = True
        if not progress:
            break
    return new_positive, new_negative
