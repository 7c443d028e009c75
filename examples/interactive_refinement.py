"""Interactive refinement: adding examples until the intended regex appears.

This mirrors the evaluation protocol of Section 8.1: the tool is run on the
initial examples; if the intended regex is not among the results, two
distinguishing examples are added and the tool is re-run (up to 4 iterations).

Run with:  python examples/interactive_refinement.py
"""

from repro.api import NlSketchProvider, Problem, Session
from repro.datasets import stackoverflow_dataset
from repro.multimodal import run_interactive
from repro.synthesis import SynthesisConfig


def main() -> None:
    benchmark = stackoverflow_dataset()[1]  # the "2 letters + 6 digits or 8 digits" post
    print("Task description:")
    print(f"  {benchmark.description}")
    print(f"Ground-truth regex: {benchmark.regex_text}\n")

    session = Session(
        provider=NlSketchProvider(num_sketches=15),
        config=SynthesisConfig(timeout=10.0, hole_depth=3),
    )

    def solve(positive, negative):
        print(f"  running Regel with {len(positive)} positive / {len(negative)} negative examples")
        report = session.solve(
            Problem(benchmark.description, positive, negative, k=5, budget=10.0)
        )
        for solution in report.solutions:
            print(f"    candidate: {solution.regex}")
        return [solution.ast() for solution in report.solutions], report.elapsed

    outcome = run_interactive(benchmark, solve, max_iterations=3)

    print()
    if outcome.solved_at is not None:
        print(f"Intended regex found at iteration {outcome.solved_at}.")
    else:
        print("Intended regex not found within 3 iterations.")
    for iteration in outcome.outcomes:
        print(
            f"  iteration {iteration.iteration}: solved={iteration.solved} "
            f"time={iteration.elapsed:.2f}s "
            f"examples={iteration.num_positive}+{iteration.num_negative}"
        )


if __name__ == "__main__":
    main()
