"""Aggregation of interactive-protocol runs into the figures' series."""

from __future__ import annotations

from typing import List, Sequence

from repro.experiments.runner import BenchmarkRun


def solved_by_iteration(runs: Sequence[BenchmarkRun], max_iterations: int = 4) -> List[int]:
    """Number of benchmarks solved by each iteration (cumulative) — Figure 16's y-axis."""
    return [
        sum(1 for run in runs if run.session.solved_by(iteration))
        for iteration in range(max_iterations + 1)
    ]


def average_time_per_solved(
    runs: Sequence[BenchmarkRun], max_iterations: int = 4
) -> List[float]:
    """Average synthesis time per *solved* benchmark at each iteration — Figure 17.

    For each iteration we average the per-iteration running time over the
    benchmarks solved by that iteration (0.0 when nothing is solved yet).
    """
    averages: List[float] = []
    for iteration in range(max_iterations + 1):
        times: List[float] = []
        for run in runs:
            if not run.session.solved_by(iteration):
                continue
            solved_at = run.session.solved_at or 0
            elapsed = run.session.time_at(min(iteration, solved_at))
            if elapsed is not None:
                times.append(elapsed)
        averages.append(sum(times) / len(times) if times else 0.0)
    return averages


def accuracy(runs: Sequence[BenchmarkRun], iteration: int = 0) -> float:
    """Fraction of benchmarks solved by the given iteration."""
    if not runs:
        return 0.0
    return solved_by_iteration(runs, iteration)[iteration] / len(runs)
