"""Interactive refinement: adding examples until the intended regex appears.

This mirrors the evaluation protocol of Section 8.1: the tool is run on the
initial examples; if the intended regex is not among the results, two
distinguishing examples are added and the tool is re-run (up to 3 re-runs).

The task is StackOverflow post 045, "2 to 5 digits".  On its initial
examples the engine returns ``RepeatRange(<num>,1,5)``, which also accepts a
single digit; the added examples rule that out and the second run returns
the intended ``RepeatRange(<num>,2,5)``.  Each sketch search is capped at 50
expansions, so the outcome does not depend on machine speed.  The exit
status is 1 if the intended regex is not found.

Run with:  python examples/interactive_refinement.py
"""

import sys

from repro.api import NlSketchProvider, Problem, Session
from repro.datasets import stackoverflow_dataset
from repro.multimodal import run_interactive
from repro.synthesis import SynthesisConfig

TASK = "stackoverflow-045"
RERUNS = 3


def main() -> int:
    benchmark = next(b for b in stackoverflow_dataset() if b.benchmark_id == TASK)
    print("Task description:")
    print(f"  {benchmark.description}")
    print(f"Ground-truth regex: {benchmark.regex_text}\n")

    session = Session(
        provider=NlSketchProvider(num_sketches=15),
        config=SynthesisConfig(max_expansions=50, timeout=10.0, hole_depth=3),
    )

    def solve(positive, negative):
        print(f"  running Regel with {len(positive)} positive / {len(negative)} negative examples")
        report = session.solve(
            Problem(benchmark.description, positive, negative, k=5, budget=10.0)
        )
        for solution in report.solutions:
            print(f"    candidate: {solution.regex}")
        return [solution.ast() for solution in report.solutions], report.elapsed

    outcome = run_interactive(benchmark, solve, max_iterations=RERUNS)

    print()
    for iteration in outcome.outcomes:
        print(
            f"  iteration {iteration.iteration}: solved={iteration.solved} "
            f"time={iteration.elapsed:.2f}s "
            f"examples={iteration.num_positive}+{iteration.num_negative}"
        )
    if outcome.solved_at is None:
        print(f"Intended regex not found within {RERUNS} re-runs.")
        return 1
    print(f"Intended regex found at iteration {outcome.solved_at}.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
