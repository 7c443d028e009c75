"""Integration tests: the end-to-end Regel tool, baselines, and the interactive protocol."""

import pytest

from repro.api import NlSketchProvider, PbeOnlyProvider, Problem, Session
from repro.baselines import DeepRegexBaseline
from repro.datasets import Benchmark, stackoverflow_dataset
from repro.dsl import matches
from repro.multimodal import run_interactive
from repro.sketch import Hole
from repro.synthesis import SynthesisConfig


@pytest.fixture(scope="module")
def fast_config():
    return SynthesisConfig(timeout=6.0, hole_depth=2)


def regel(config, num_sketches):
    """The full tool: the semantic parser's sketches completed by the engine."""
    return Session(provider=NlSketchProvider(num_sketches=num_sketches), config=config)


class TestRegelEndToEnd:
    def test_simple_description_and_examples(self, fast_config):
        report = regel(fast_config, 10).solve(
            Problem(
                "2 letters followed by 3 digits",
                positive=["ab123", "xy987"],
                negative=["ab12", "a123", "12345"],
                k=1,
                budget=8.0,
            )
        )
        assert report.solved
        regex = report.best.ast()
        assert matches(regex, "qq000")
        assert not matches(regex, "qq00")

    def test_returns_at_most_k(self, fast_config):
        report = regel(fast_config, 10).solve(
            Problem("3 digits", positive=["123", "456"], negative=["12", "1234"], k=3, budget=8.0)
        )
        assert 1 <= len(report.solutions) <= 3
        assert all(matches(solution.ast(), "789") for solution in report.solutions)

    def test_examples_disambiguate_misleading_text(self, fast_config):
        """The NL says 'comma' but the examples use a period (Section 2 situation)."""
        report = regel(fast_config, 15).solve(
            Problem(
                "numbers then a comma then at max 3 numbers",
                positive=["12.5", "1.25", "123.1"],
                negative=["12,5", "1.2345"],
                k=1,
                budget=8.0,
            )
        )
        assert report.solved
        assert matches(report.best.ast(), "99.1")
        assert not matches(report.best.ast(), "99,1")

    def test_budget_limits_sketches_tried(self, fast_config):
        report = regel(fast_config, 25).solve(
            Problem(
                "letters and digits and dashes mixed somehow",
                positive=["a-1"],
                negative=["###"],
                k=1,
                budget=0.05,
            )
        )
        assert report.elapsed < 5.0


class TestBaselines:
    def test_pbe_only_uses_unconstrained_hole(self):
        assert PbeOnlyProvider().sketches(Problem("3 digits")) == [Hole(())]

    def test_pbe_only_solves_simple_task(self, fast_config):
        report = Session(provider=PbeOnlyProvider(), config=fast_config).solve(
            Problem("", positive=["123", "456"], negative=["12", "abcd"], k=1, budget=8.0)
        )
        assert report.solved
        assert matches(report.best.ast(), "999")

    def test_deepregex_ignores_examples(self):
        baseline = DeepRegexBaseline()
        with_examples = baseline.solve("3 digits", ["999"], ["12"])
        without_examples = baseline.solve("3 digits", [], [])
        assert with_examples == without_examples
        assert with_examples, "the stylised description should be translatable"

    def test_deepregex_returns_nothing_for_gibberish(self):
        baseline = DeepRegexBaseline()
        assert baseline.solve("zzz qqq www", [], []) == []


class TestInteractiveProtocol:
    def test_solves_immediately_when_tool_is_right(self):
        benchmark = Benchmark(
            benchmark_id="t-ok",
            description="3 digits",
            regex_text="Repeat(<num>,3)",
            positive=("123",),
            negative=("12",),
        )

        def solve(positive, negative):
            from repro.dsl import Repeat, NUM

            return [Repeat(NUM, 3)], 0.01

        session = run_interactive(benchmark, solve, max_iterations=4)
        assert session.solved_at == 0
        assert session.solved_by(0)

    def test_adds_examples_when_tool_is_wrong(self):
        benchmark = Benchmark(
            benchmark_id="t-wrong",
            description="2 to 4 digits",
            regex_text="RepeatRange(<num>,2,4)",
            positive=("12", "1234"),
            negative=("1",),
        )
        calls = []

        def solve(positive, negative):
            from repro.dsl import RepeatAtLeast, NUM

            calls.append((tuple(positive), tuple(negative)))
            return [RepeatAtLeast(NUM, 2)], 0.01

        session = run_interactive(benchmark, solve, max_iterations=2)
        assert session.solved_at is None
        assert len(calls) == 3
        # Examples must grow across iterations.
        assert len(calls[1][0]) + len(calls[1][1]) > len(calls[0][0]) + len(calls[0][1])

    def test_interactive_with_real_tool_on_benchmark(self, fast_config):
        benchmark = stackoverflow_dataset()[5]  # the percentage benchmark
        tool = regel(fast_config, 10)

        def solve(positive, negative):
            report = tool.solve(
                Problem(benchmark.description, positive, negative, k=3, budget=6.0)
            )
            return [solution.ast() for solution in report.solutions], report.elapsed

        session = run_interactive(benchmark, solve, max_iterations=1)
        assert session.outcomes
        for outcome in session.outcomes:
            assert outcome.num_positive >= len(benchmark.positive)


class TestCli:
    def test_cli_simple_invocation(self, capsys):
        from repro.cli import main

        code = main(["3 digits", "--pos", "123", "--neg", "12", "-t", "6"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Repeat" in captured.out or "<num>" in captured.out

    def test_cli_failure_exit_code(self, capsys):
        from repro.cli import main

        # Contradictory examples: the same string is both positive and negative.
        code = main(["3 digits", "--pos", "123", "--neg", "123", "-t", "1"])
        assert code == 1
