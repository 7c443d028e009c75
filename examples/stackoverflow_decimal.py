"""The paper's motivating example (Section 2): validating Decimal(18, 3).

A StackOverflow user wants to accept decimal numbers with at most 15 digits
before the period and at most 3 after it, and also plain 15-digit integers.
The English description is ambiguous (it even says "comma" instead of
"period").  The example solves it twice:

1. with the h-sketches the semantic parser derives from the description.
   The untrained parser shipped here does not propose a sketch the engine
   can complete in time: this round found no regex within its 30 s budget
   on a 2-core machine;
2. with the paper's Section-2 h-sketch
   ``Concat(Hole(RepeatRange(<num>,1,15)),Hole(Optional(Concat(<.>,RepeatRange(<num>,1,3)))))``
   at hole depth 2, which the engine completes to the intended regex in
   660 expansions (well under a second).

Each round prints its regexes and the sketch each one came from.  The exit
status is 1 unless round 2 finds a regex equivalent to the intended one.

Run with:  python examples/stackoverflow_decimal.py
"""

import sys

from repro.api import NlSketchProvider, Problem, RunReport, Session, StaticSketchProvider
from repro.automata import regex_equivalent
from repro.dsl import matches, parse_regex, to_dsl_string
from repro.sketch import sketch_to_string
from repro.synthesis import SynthesisConfig


DESCRIPTION = (
    "I need a regular expression that validates Decimal(18, 3), which means the max "
    "number of digits before comma is 15 then accept at max 3 numbers after the comma."
)
POSITIVE = ["123456789.123", "123456789123456.12", "12345.1", "123456789123456"]
NEGATIVE = ["1234567891234567", "123.1234", "1.12345", ".1234"]
#: The h-sketch of Section 2 and the regex the user intends.
SECTION2_SKETCH = (
    "Concat(Hole(RepeatRange(<num>,1,15)),"
    "Hole(Optional(Concat(<.>,RepeatRange(<num>,1,3)))))"
)
INTENDED = parse_regex("Concat(RepeatRange(<num>,1,15),Optional(Concat(<.>,RepeatRange(<num>,1,3))))")
BUDGET = 30.0


def show(report: RunReport) -> None:
    print(f"  finished in {report.elapsed:.2f}s ({report.sketches_tried} sketches tried)")
    if not report.solved:
        print("  no consistent regex found within the budget")
        return
    sketches = {sketch.index: sketch.sketch for sketch in report.sketches}
    for rank, solution in enumerate(report.solutions, start=1):
        print(f"  #{rank}: {solution.regex}")
        print(f"      solved by sketch {solution.sketch_index}: "
              f"{sketches[solution.sketch_index]}")


def main() -> int:
    problem = Problem(DESCRIPTION, POSITIVE, NEGATIVE, k=5, budget=BUDGET)

    print("Natural language description:")
    print(f"  {DESCRIPTION}\n")
    provider = NlSketchProvider(num_sketches=25)
    print("Ranked h-sketches produced by the semantic parser (top 5):")
    for sketch in provider.parser.sketches(DESCRIPTION, k=5):
        print(f"  {sketch_to_string(sketch)}")
    print("\nRound 1: the parsed sketches")
    parsed = Session(provider=provider, config=SynthesisConfig(timeout=BUDGET, hole_depth=3))
    show(parsed.solve(problem))

    print("\nRound 2: the paper's Section-2 h-sketch")
    section2 = Session(
        provider=StaticSketchProvider([SECTION2_SKETCH]),
        config=SynthesisConfig(timeout=BUDGET, hole_depth=2),
    )
    report = section2.solve(problem)
    show(report)
    if not report.solved:
        return 1

    best = report.best.ast()
    print("\nBehaviour of the top result:")
    for text in POSITIVE + NEGATIVE + ["0.5", "12345678.9999"]:
        print(f"  {text!r:22} -> {'accept' if matches(best, text) else 'reject'}")
    if not regex_equivalent(best, INTENDED):
        print(f"\nThe top result is not equivalent to the intended {to_dsl_string(INTENDED)}")
        return 1
    print("\nThe top result is equivalent to the intended regex.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
