"""Quickstart: synthesize a regex from an English description plus examples.

Uses the pipeline API: a frozen :class:`~repro.api.Problem` spec, a
:class:`~repro.api.Session`, whose portfolio scheduler runs one engine per
sketch in rank-first turns (the paper's run-one-engine-per-sketch-in-parallel
semantics, in-process), and the streaming ``iter_solutions`` generator that
yields each regex the moment an engine instance finds it — long before the
full budget elapses.  The exit status is 1 if no regex is found.

Run with:  python examples/quickstart.py
"""

import sys
import time

from repro.api import Problem, Session
from repro.dsl import matches


def main() -> int:
    # The user describes the task in English *and* gives a few examples.
    problem = Problem(
        description="2 letters followed by a dash and then 4 digits",
        positive=["ab-1234", "xy-0001"],
        negative=["ab1234", "a-1234", "ab-123"],
        k=1,
        budget=15.0,
    )

    session = Session()

    print(f"Streaming solutions (budget {problem.budget:.0f}s):")
    start = time.monotonic()
    for rank, solution in enumerate(session.iter_solutions(problem), start=1):
        print(f"#{rank} at {time.monotonic() - start:5.2f}s: {solution.regex}")
        print(f"     python regex: {solution.python_regex()}")

    report = session.last_report
    if not report.solved:
        print("No regex found within the time budget.")
        return 1

    print(
        f"\nTried {report.sketches_tried} sketches in {report.elapsed:.2f}s "
        f"({report.total_expansions} expansions, {report.total_pruned} pruned)"
    )

    best = report.best.ast()
    print("\nSanity check against fresh strings:")
    for text in ["QQ-9999", "QQ-99", "qq-9999"]:
        print(f"  {text!r:12} -> {'match' if matches(best, text) else 'no match'}")

    # Problems and reports round-trip through JSON — ready for batch files,
    # queues, and services:
    print(f"\nProblem as JSON: {problem.to_json()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
