"""Shared evaluation runner: tools × benchmarks × the interactive protocol."""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.api import NlSketchProvider, PbeOnlyProvider, Problem, Session
from repro.baselines.deepregex import DeepRegexBaseline
from repro.datasets.benchmark import Benchmark
from repro.datasets.splits import training_pairs
from repro.multimodal.interaction import InteractiveSession, run_interactive
from repro.nlp.sketch_gen import SemanticParser
from repro.synthesis import SynthesisConfig


class ToolName(str, enum.Enum):
    REGEL = "regel"
    REGEL_PBE = "regel-pbe"
    DEEPREGEX = "deepregex"


@dataclass
class BenchmarkRun:
    """Interactive-protocol result for one (tool, benchmark) pair."""

    tool: ToolName
    benchmark_id: str
    session: InteractiveSession


Solver = Callable[[Benchmark], Callable[[Sequence[str], Sequence[str]], tuple[list, float]]]


def trained_parser(train_benchmarks: Sequence[Benchmark], epochs: int = 2) -> SemanticParser:
    """A semantic parser trained on the gold sketch labels of the training set."""
    parser = SemanticParser()
    pairs = training_pairs(train_benchmarks)
    if pairs:
        parser.train(pairs, epochs=epochs)
    return parser


def make_regel_solver(
    parser: Optional[SemanticParser] = None,
    config: Optional[SynthesisConfig] = None,
    k: int = 1,
    time_budget: float = 10.0,
    num_sketches: int = 25,
) -> Solver:
    """Solver factory for the full Regel tool.

    The session runs the paper's one engine per sketch in rank-first turns
    in-process (:func:`repro.api.schedulers.interleave`).
    """
    session = Session(
        provider=NlSketchProvider(parser, num_sketches=num_sketches), config=config
    )

    def for_benchmark(benchmark: Benchmark):
        def solve(positive: Sequence[str], negative: Sequence[str]):
            report = session.solve(
                Problem(
                    description=benchmark.description,
                    positive=positive,
                    negative=negative,
                    k=k,
                    budget=time_budget,
                )
            )
            return [solution.ast() for solution in report.solutions], report.elapsed

        return solve

    return for_benchmark


def make_pbe_solver(
    config: Optional[SynthesisConfig] = None,
    k: int = 1,
    time_budget: float = 10.0,
) -> Solver:
    """Solver factory for the examples-only Regel-PBE baseline."""
    session = Session(provider=PbeOnlyProvider(), config=config)

    def for_benchmark(benchmark: Benchmark):
        def solve(positive: Sequence[str], negative: Sequence[str]):
            report = session.solve(
                Problem(
                    description="",
                    positive=positive,
                    negative=negative,
                    k=k,
                    budget=time_budget,
                )
            )
            return [solution.ast() for solution in report.solutions], report.elapsed

        return solve

    return for_benchmark


def make_deepregex_solver(parser: Optional[SemanticParser] = None) -> Solver:
    """Solver factory for the NL-only DeepRegex-style baseline."""
    baseline = DeepRegexBaseline(parser=parser)

    def for_benchmark(benchmark: Benchmark):
        def solve(positive: Sequence[str], negative: Sequence[str]):
            start = time.monotonic()
            regexes = baseline.solve(benchmark.description, positive, negative)
            return regexes, time.monotonic() - start

        return solve

    return for_benchmark


def evaluate_tool(
    tool: ToolName,
    benchmarks: Sequence[Benchmark],
    solver: Solver,
    max_iterations: int = 4,
) -> List[BenchmarkRun]:
    """Run one tool over a benchmark set with the interactive protocol."""
    runs: List[BenchmarkRun] = []
    for benchmark in benchmarks:
        session = run_interactive(
            benchmark, solver(benchmark), max_iterations=max_iterations
        )
        runs.append(BenchmarkRun(tool=tool, benchmark_id=benchmark.benchmark_id, session=session))
    return runs
