"""The paper's motivating example (Section 2): validating Decimal(18, 3).

A StackOverflow user wants to accept decimal numbers with at most 15 digits
before the period and at most 3 after it, and also plain 15-digit integers.
The English description is ambiguous (it even says "comma" instead of
"period"), but combined with examples Regel recovers the intended regex.

Run with:  python examples/stackoverflow_decimal.py
"""

from repro.api import NlSketchProvider, Problem, Session
from repro.dsl import matches
from repro.sketch import sketch_to_string
from repro.synthesis import SynthesisConfig


DESCRIPTION = (
    "I need a regular expression that validates Decimal(18, 3), which means the max "
    "number of digits before comma is 15 then accept at max 3 numbers after the comma."
)
POSITIVE = ["123456789.123", "123456789123456.12", "12345.1", "123456789123456"]
NEGATIVE = ["1234567891234567", "123.1234", "1.12345", ".1234"]


def main() -> None:
    provider = NlSketchProvider(num_sketches=25)
    session = Session(provider=provider, config=SynthesisConfig(timeout=30.0, hole_depth=3))

    print("Natural language description:")
    print(f"  {DESCRIPTION}\n")
    print("Ranked h-sketches produced by the semantic parser (top 5):")
    for sketch in provider.parser.sketches(DESCRIPTION, k=5):
        print(f"  {sketch_to_string(sketch)}")

    report = session.solve(Problem(DESCRIPTION, POSITIVE, NEGATIVE, k=5, budget=30.0))
    print(f"\nSynthesis finished in {report.elapsed:.2f}s "
          f"({report.sketches_tried} sketches tried)\n")

    if not report.solved:
        print("No consistent regex found — try increasing the time budget.")
        return

    for rank, solution in enumerate(report.solutions, start=1):
        print(f"#{rank}: {solution.regex}")

    best = report.best.ast()
    print("\nBehaviour of the top result:")
    for text in POSITIVE + NEGATIVE + ["0.5", "12345678.9999"]:
        print(f"  {text!r:22} -> {'accept' if matches(best, text) else 'reject'}")


if __name__ == "__main__":
    main()
