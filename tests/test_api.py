"""Tests for the pipeline API: specs, providers, the scheduler, sessions."""

import dataclasses
import json
import time

import pytest

from repro.api import (
    CancelToken,
    NlSketchProvider,
    PbeOnlyProvider,
    Problem,
    RunReport,
    Session,
    SketchReport,
    Solution,
    StaticSketchProvider,
)
from repro.api.schedulers import SLICE_EXPANSIONS
from repro.dsl import matches
from repro.dsl.printer import to_dsl_string
from repro.dsl.simplify import size
from repro.sketch import Hole, parse_sketch
from repro.synthesis import EngineVariant, SynthesisConfig, Synthesizer
from repro.synthesis.engine import SynthesisRun


@pytest.fixture(scope="module")
def fast_config():
    return SynthesisConfig(timeout=6.0, hole_depth=2)


THREE_DIGITS = Problem(
    description="3 digits",
    positive=["123", "456"],
    negative=["12", "1234"],
    k=1,
    budget=8.0,
)


class TestProblemSpec:
    def test_json_round_trip(self):
        problem = Problem(
            description="3 digits",
            positive=["123"],
            negative=["12"],
            k=2,
            budget=5.0,
            variant=EngineVariant.APPROX,
        )
        restored = Problem.from_json(problem.to_json())
        assert restored == problem
        assert restored.variant is EngineVariant.APPROX

    def test_sequences_are_frozen_tuples(self):
        problem = Problem("x", positive=["a"], negative=["b"])
        assert problem.positive == ("a",)
        assert problem.negative == ("b",)
        with pytest.raises(AttributeError):
            problem.k = 5

    def test_variant_accepts_string(self):
        assert Problem("x", variant="regel-enum").variant is EngineVariant.ENUM

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            Problem("x", k=0)
        with pytest.raises(ValueError):
            Problem("x", budget=0)


class TestRunReportSerialisation:
    def test_report_json_round_trip(self):
        report = RunReport(
            problem=THREE_DIGITS,
            solutions=[Solution(regex="Repeat(<num>,3)", size=2, sketch_index=0, elapsed=0.1)],
            sketches=[
                SketchReport(
                    index=0,
                    sketch="Repeat(<num>,3)",
                    expansions=2,
                    pruned=0,
                    elapsed=0.05,
                    solved=True,
                    timed_out=False,
                )
            ],
            elapsed=0.2,
        )
        restored = RunReport.from_json(report.to_json())
        assert restored.problem == report.problem
        assert restored.solutions == report.solutions
        assert restored.sketches == report.sketches
        assert restored.solved and restored.best.regex == "Repeat(<num>,3)"

    def test_solution_ast_round_trip(self):
        solution = Solution(regex="Repeat(<num>,3)", size=2, sketch_index=0, elapsed=0.0)
        assert matches(solution.ast(), "987")
        assert solution.python_regex() is not None

    def test_solved_report_from_real_run(self, fast_config):
        session = Session(config=fast_config)
        report = session.solve(THREE_DIGITS)
        assert report.solved
        payload = json.loads(report.to_json())
        assert payload["solved"] is True
        assert payload["solutions"][0]["regex"] == report.best.regex


class TestProviders:
    def test_pbe_only_matches_legacy_sketch_list(self):
        assert PbeOnlyProvider().sketches(THREE_DIGITS) == [Hole(())]

    def test_static_provider_parses_strings(self):
        provider = StaticSketchProvider(["Repeat(<num>,3)", "Hole()"])
        sketches = provider.sketches(THREE_DIGITS)
        assert sketches[0] == parse_sketch("Repeat(<num>,3)")
        assert sketches[1] == Hole(())

    def test_static_provider_accepts_asts(self):
        provider = StaticSketchProvider([Hole(())])
        assert provider.sketches(THREE_DIGITS) == [Hole(())]

    def test_static_provider_rejects_empty(self):
        with pytest.raises(ValueError):
            StaticSketchProvider([])

    def test_nl_provider_falls_back_without_description(self):
        provider = NlSketchProvider()
        assert provider.sketches(Problem("")) == [Hole(())]

    def test_provider_equivalence_pbe(self, fast_config):
        """PbeOnlyProvider behaves exactly like a static single-hole sketch list."""
        problem = Problem("", positive=["123", "456"], negative=["12", "abcd"], budget=8.0)
        via_provider = Session(provider=PbeOnlyProvider(), config=fast_config).solve(problem)
        via_static = Session(
            provider=StaticSketchProvider(["Hole()"]), config=fast_config
        ).solve(problem)
        assert via_provider.solved and via_static.solved
        assert via_provider.best.regex == via_static.best.regex
        assert via_provider.best.regex == "Repeat(<num>,3)"


class TestSchedulers:
    def test_best_regex_on_an_easy_benchmark_problem(self, fast_config):
        report = Session(config=fast_config).solve(THREE_DIGITS)
        assert report.solved
        assert report.best.regex == "Repeat(<num>,3)"

    # A pathological first sketch (unconstrained hole at full depth on examples
    # plain PBE cannot crack quickly) ahead of the trivially checkable target.
    STARVATION_SKETCHES = [
        "Hole()",
        "Concat(Repeat(<cap>,2),Concat(<->,Repeat(<num>,4)))",
    ]
    # The negative set is deliberately dense: every small regex an
    # unconstrained Hole() search reaches early is rejected, so the first
    # sketch stays a budget hog even with the fast propagation-based solver
    # (the sketch-2 completion remains consistent with all examples).
    STARVATION_PROBLEM = Problem(
        description="",
        positive=["AB-1234", "XY-0001"],
        negative=[
            "AB1234",
            "A-1234",
            "ab-1234",
            "AB-123",
            "AB-12345",
            "ABC-1234",
            "AB--1234",
            "A8-1234",
            "AB-1B34",
        ],
        k=1,
        budget=1.5,
    )

    def test_interleaved_solves_past_a_pathological_first_sketch(self):
        """A pathological first sketch must not starve an easy later sketch."""
        report = Session(
            provider=StaticSketchProvider(self.STARVATION_SKETCHES),
            config=SynthesisConfig(timeout=6.0),  # full hole depth: Hole() is a hog
        ).solve(self.STARVATION_PROBLEM)
        assert report.solved
        assert matches(report.best.ast(), "QQ-4321")

    def test_fair_sequential_reaches_later_sketches(self):
        """The fair budget fix: later sketches get slices despite a hog."""
        fair = Session(
            provider=StaticSketchProvider(self.STARVATION_SKETCHES),
            config=SynthesisConfig(timeout=6.0),
        ).solve(self.STARVATION_PROBLEM)
        assert fair.solved
        # Both sketches received engine time, and the report lists them by rank.
        assert fair.sketches_tried == 2
        assert [sketch.index for sketch in fair.sketches] == [0, 1]
        assert fair.sketches[1].solved

    def test_interleaved_honours_the_per_sketch_timeout(self):
        """A hog is stopped at ``config.timeout``, not at the whole budget."""
        problem = Problem(
            description="",
            positive=self.STARVATION_PROBLEM.positive,
            negative=self.STARVATION_PROBLEM.negative,
            k=1,
            budget=3.0,
        )
        report = Session(
            provider=StaticSketchProvider(["Hole()"]),
            config=SynthesisConfig(timeout=0.3),
        ).solve(problem)
        (hog,) = report.sketches
        assert hog.timed_out
        assert hog.elapsed < 1.5
        assert report.elapsed < 1.5

    def test_top_ranked_sketch_gets_half_of_every_round(self, monkeypatch):
        """Rank-first turns: the top sketch steps as many pops as all hogs together.

        Three ``Hole()`` hogs are ranked behind a sketch that needs about
        1,600 pops; no cap and no wall-clock guard binds, so every turn runs
        its full allowance until the top sketch answers.
        """
        top = "Concat(Hole(<cap>),Concat(<->,Repeat(<num>,4)))"
        turns = []  # (is the top sketch, pops stepped) per turn
        step = SynthesisRun.step

        def recording(run, budget, max_expansions=None):
            before = run.result.expansions
            result = step(run, budget, max_expansions)
            turns.append((run.sketch != Hole(()), result.expansions - before))
            return result

        monkeypatch.setattr(SynthesisRun, "step", recording)
        report = Session(
            provider=StaticSketchProvider([top] + ["Hole()"] * 3),
            config=SynthesisConfig(timeout=60.0),
        ).solve(dataclasses.replace(self.STARVATION_PROBLEM, budget=60.0))
        assert report.solved and report.best.sketch_index == 0
        rounds = []  # [top pops, hog pops] per round
        for is_top, pops in turns:
            if is_top:
                rounds.append([pops, 0])
            else:
                rounds[-1][1] += pops
        assert len(rounds) > 1
        assert all(top_pops >= hog_pops for top_pops, hog_pops in rounds), rounds

    def test_interleaved_keeps_all_solutions_across_slices(self):
        """Solutions found in later turns must not be lost to re-ranking.

        The oracle is one uninterrupted engine run over the same sketch.
        """
        problem = Problem(
            "", positive=["12.5", "1.25"], negative=["12,5", "125"], k=3, budget=8.0
        )
        config = SynthesisConfig(timeout=6.0, hole_depth=3, max_results=3)
        oracle = Synthesizer(config).synthesize(Hole(()), problem.examples())
        interleaved = Session(
            provider=StaticSketchProvider(["Hole()"]), config=config
        ).solve(problem)
        assert interleaved.sketches[0].expansions > SLICE_EXPANSIONS  # several turns
        assert len(interleaved.solutions) == 3
        assert [s.regex for s in interleaved.solutions] == [
            to_dsl_string(regex) for regex in oracle.regexes
        ]

    def test_turns_do_the_work_of_uninterrupted_runs(self):
        """Under an expansion cap, turns change nothing but the order of work.

        ``k`` is at least the sketch count, so the session cancels no run:
        each sketch's search is the same deterministic computation whether
        it runs in turns or whole, and the oracle is one uninterrupted
        engine run per sketch.
        """
        sketches = [
            "Hole()",
            "Concat(Repeat(<cap>,2),Concat(<->,Repeat(<num>,4)))",
            "Concat(Hole(<cap>),Hole(<num>))",
        ]
        problem = Problem(
            "",
            positive=["AB-1234", "XY-0001"],
            negative=["AB1234", "A-1234", "ab-1234", "AB-123"],
            k=len(sketches),
            budget=60.0,
        )
        config = SynthesisConfig(timeout=60.0, hole_depth=2, max_expansions=150)

        report = Session(provider=StaticSketchProvider(sketches), config=config).solve(
            problem
        )
        work = [[s.index, s.expansions, s.pruned] for s in report.sketches]
        oracle = [
            Synthesizer(config).synthesize(parse_sketch(sketch), problem.examples())
            for sketch in sketches
        ]
        assert work == [
            [index, result.expansions, result.pruned] for index, result in enumerate(oracle)
        ]
        found = {to_dsl_string(regex): size(regex) for result in oracle for regex in result.regexes}
        ranked = sorted(found, key=lambda text: (found[text], text))[: problem.k]
        assert [s.regex for s in report.solutions] == ranked
        assert ranked
        # The cap binds after several turns, so resumption is exercised.
        assert max(expansions for _, expansions, _ in work) == 150 > SLICE_EXPANSIONS

    def test_interleaved_reports_only_attempted_sketches(self, fast_config):
        """Sketches that never received a turn are not phantom attempts."""
        provider = StaticSketchProvider(["Repeat(<num>,3)"] + ["Hole()"] * 4)
        problem = Problem("", positive=["123"], negative=["12"], k=1, budget=8.0)
        report = Session(provider=provider, config=fast_config).solve(problem)
        assert report.solved
        assert report.sketches_tried == 1
        assert all(sketch.expansions > 0 for sketch in report.sketches)


class TestSessionStreaming:
    def test_first_solution_streams_before_budget(self, fast_config):
        """iter_solutions yields the quickstart problem long before the budget."""
        problem = Problem(
            description="2 letters followed by a dash and then 4 digits",
            positive=["ab-1234", "xy-0001"],
            negative=["ab1234", "a-1234", "ab-123"],
            k=1,
            budget=15.0,
        )
        session = Session(config=fast_config)
        start = time.monotonic()
        first = next(iter(session.iter_solutions(problem)))
        first_at = time.monotonic() - start
        assert first_at < problem.budget / 2, "no anytime behaviour"
        assert matches(first.ast(), "qq-5678")

    def test_closing_the_stream_cancels(self, fast_config):
        # First solution arrives instantly; the unconstrained hole would keep
        # the portfolio busy for the rest of the 30s budget — closing the
        # stream after the first yield must cancel it cooperatively.
        problem = Problem(
            description="", positive=["123", "456"], negative=["12"], k=3, budget=30.0
        )
        session = Session(
            provider=StaticSketchProvider(["Repeat(<num>,3)", "Hole()"]),
            config=fast_config,
        )
        start = time.monotonic()
        stream = session.iter_solutions(problem)
        first = next(stream)
        stream.close()
        assert time.monotonic() - start < 10.0
        assert matches(first.ast(), "555")
        report = session.last_report
        assert report is not None and report.cancelled
        assert len(report.solutions) == 1

    def test_closing_an_unstarted_stream_is_harmless(self, fast_config):
        session = Session(config=fast_config)
        stream = session.iter_solutions(THREE_DIGITS)
        stream.close()  # generator never ran: nothing to cancel, no report
        assert session.last_report is None

    def test_external_cancel_token(self, fast_config):
        cancel = CancelToken()
        cancel.cancel()
        problem = Problem("", positive=["AB-1234"], negative=["x"], budget=30.0)
        session = Session(provider=PbeOnlyProvider(), config=fast_config)
        start = time.monotonic()
        report = session.solve(problem, cancel=cancel)
        assert time.monotonic() - start < 10.0
        assert not report.solved

    def test_k_distinct_solutions(self, fast_config):
        problem = Problem(
            description="3 digits",
            positive=["123", "456"],
            negative=["12", "1234"],
            k=3,
            budget=8.0,
        )
        report = Session(config=fast_config).solve(problem)
        assert 1 <= len(report.solutions) <= 3
        regexes = [solution.regex for solution in report.solutions]
        assert len(set(regexes)) == len(regexes)
        assert all(matches(solution.ast(), "789") for solution in report.solutions)


class TestTelemetry:
    def test_per_sketch_reports_cover_attempted_sketches(self, fast_config):
        provider = StaticSketchProvider(
            ["Concat(<a>,<b>)", "Repeat(<num>,3)", "Repeat(<let>,3)"]
        )
        problem = Problem("", positive=["123"], negative=["12"], k=1, budget=8.0)
        report = Session(provider=provider, config=fast_config).solve(problem)
        assert report.solved
        # Every attempted sketch is reported, solved or not (historically only
        # solved sketches were timed, overstating speed).
        assert report.sketches_tried >= 2
        solved_flags = [sketch.solved for sketch in report.sketches]
        assert any(solved_flags) and not all(solved_flags)
        assert all(sketch.elapsed >= 0.0 for sketch in report.sketches)
        assert report.total_expansions > 0


class TestCliJson:
    def test_solve_json_emits_run_report(self, capsys):
        from repro.cli import main

        code = main(
            ["solve", "3 digits", "--pos", "123", "--neg", "12", "-t", "6", "--json"]
        )
        captured = capsys.readouterr()
        assert code == 0
        report = RunReport.from_json(captured.out)
        assert report.solved
        assert report.problem.description == "3 digits"

    def test_batch_mode(self, tmp_path, capsys):
        from repro.cli import main

        problems = [
            Problem("3 digits", positive=["123"], negative=["12"], budget=5.0).to_dict(),
            Problem("2 letters", positive=["ab"], negative=["a"], budget=5.0).to_dict(),
        ]
        path = tmp_path / "problems.json"
        path.write_text(json.dumps(problems))
        code = main(["batch", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        lines = [line for line in captured.out.splitlines() if line.strip()]
        assert len(lines) == 2
        assert all(RunReport.from_json(line).solved for line in lines)

    def test_legacy_invocation_still_works(self, capsys):
        from repro.cli import main

        code = main(["3 digits", "--pos", "123", "--neg", "12", "-t", "6"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Repeat" in captured.out or "<num>" in captured.out

    def test_batch_ndjson_stream_with_record(self, tmp_path, capsys):
        from repro.cli import main

        problems = [
            Problem("3 digits", positive=["123"], negative=["12"], budget=5.0),
            Problem("2 letters", positive=["ab"], negative=["a"], budget=5.0),
        ]
        path = tmp_path / "problems.ndjson"
        path.write_text("\n".join(p.canonical_json() for p in problems) + "\n")
        record_path = tmp_path / "batch.json"
        code = main(["batch", str(path), "--record", str(record_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert len([line for line in captured.out.splitlines() if line.strip()]) == 2

        # The record is the same format the service writes.
        from repro.service.batch import BatchRecord

        record = BatchRecord.load(record_path)
        assert len(record) == 2 and record.done
        assert record.counts()["failed"] == 0

        # Re-running against the same record skips every known item.
        code = main(["batch", str(path), "--record", str(record_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == ""
        assert "skipped" in captured.err

    def test_batch_record_file_is_written_by_the_record(self, tmp_path, capsys):
        from repro.cli import main
        from repro.service.batch import BatchRecord

        path = tmp_path / "problems.ndjson"
        path.write_text("{not json\n" * 5)  # each line fails fast, no solve
        record_path = tmp_path / "batch.json"
        assert main(["batch", str(path), "--record", str(record_path)]) == 1
        capsys.readouterr()
        # No caller saves: the record snapshots itself as it grows, so FILE
        # exists and holds at least half the items.
        snapshot = json.loads(record_path.read_text(encoding="utf-8"))
        loaded = BatchRecord.load(record_path)
        assert len(loaded) == 5 and loaded.counts()["failed"] == 5
        assert snapshot["batch_id"] == loaded.batch_id
        assert 5 <= 2 * len(snapshot["items"])
        assert snapshot["items"] == loaded.items[: len(snapshot["items"])]

    def test_batch_resume_offset_skips_lines(self, tmp_path, capsys):
        from repro.cli import main

        problems = [
            Problem("3 digits", positive=["123"], negative=["12"], budget=5.0),
            Problem("2 letters", positive=["ab"], negative=["a"], budget=5.0),
        ]
        path = tmp_path / "problems.ndjson"
        path.write_text("\n".join(p.canonical_json() for p in problems) + "\n")
        code = main(["batch", str(path), "--resume", "1"])
        captured = capsys.readouterr()
        assert code == 0
        lines = [line for line in captured.out.splitlines() if line.strip()]
        assert len(lines) == 1
        assert RunReport.from_json(lines[0]).problem.description == "2 letters"

    def test_batch_bad_line_fails_item_not_stream(self, tmp_path, capsys):
        from repro.cli import main

        good = Problem("3 digits", positive=["123"], negative=["12"], budget=5.0)
        path = tmp_path / "problems.ndjson"
        path.write_text("{broken\n" + good.canonical_json() + "\n")
        code = main(["batch", str(path)])
        captured = capsys.readouterr()
        assert code == 1  # at least one item failed
        lines = [line for line in captured.out.splitlines() if line.strip()]
        assert len(lines) == 2
        assert "error" in json.loads(lines[0])
        assert RunReport.from_json(lines[1]).solved

    def test_corpus_generate(self, tmp_path, capsys):
        from repro.cli import main

        corpus = tmp_path / "corpus.ndjson"
        corpus.write_text(
            '{"pattern": "^\\\\d{3}$", "uses": 5}\n'
            '{"pattern": "(?=x)y", "uses": 5}\n'
        )
        out = tmp_path / "problems.ndjson"
        code = main(["corpus", "generate", str(corpus), "-o", str(out), "--seed", "7"])
        captured = capsys.readouterr()
        assert code == 0
        lines = [line for line in out.read_text().splitlines() if line.strip()]
        assert len(lines) == 1
        problem = Problem.from_json(lines[0])
        assert problem.description == "^\\d{3}$"
        assert problem.positive and problem.negative
        assert "lookaround" in captured.err

        # Same seed, same output: generation is deterministic.
        out2 = tmp_path / "problems2.ndjson"
        main(["corpus", "generate", str(corpus), "-o", str(out2), "--seed", "7"])
        capsys.readouterr()
        assert out2.read_text() == out.read_text()
