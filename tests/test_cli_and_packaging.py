"""Smoke tests for packaging metadata, public API surface, and documentation files."""

import json
import pathlib

import repro
from repro.cli import main


ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestPublicApi:
    def test_version_exposed(self):
        assert repro.__version__

    def test_top_level_exports(self):
        from repro import SemanticParser, Session, SynthesisConfig, synthesize

        assert callable(synthesize)
        assert Session and SemanticParser and SynthesisConfig

    def test_subpackages_importable(self):
        import repro.automata
        import repro.baselines
        import repro.datasets
        import repro.dsl
        import repro.experiments
        import repro.multimodal
        import repro.nlp
        import repro.service
        import repro.sketch
        import repro.solver
        import repro.synthesis

        assert repro.dsl.NUM is not None

    def test_all_lists_resolve(self):
        import repro.dsl as dsl
        import repro.synthesis as synthesis

        for module in (dsl, synthesis):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name} missing"


class TestDocumentation:
    def test_required_documents_exist(self):
        for name in (
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "pyproject.toml",
            "docs/api.md",
            "docs/architecture.md",
            "docs/deployment.md",
        ):
            assert (ROOT / name).is_file(), name

    def test_design_doc_covers_every_figure(self):
        text = (ROOT / "DESIGN.md").read_text()
        for artefact in ("Fig. 16", "Fig. 17", "Fig. 18", "user study"):
            assert artefact in text

    def test_examples_present(self):
        examples = list((ROOT / "examples").glob("*.py"))
        assert len(examples) >= 3
        assert any(path.name == "quickstart.py" for path in examples)

    def test_benchmarks_cover_every_figure(self):
        names = {path.name for path in (ROOT / "benchmarks").glob("bench_*.py")}
        assert {
            "bench_figure16.py",
            "bench_figure17.py",
            "bench_figure18.py",
            "bench_user_study.py",
            "bench_dsl_coverage.py",
            "bench_dataset_stats.py",
        } <= names

    def test_cli_entry_point_declared(self):
        text = (ROOT / "pyproject.toml").read_text()
        assert 'regel = "repro.cli:main"' in text


class TestLintCli:
    def test_clean_problem_exits_zero(self, capsys):
        code = main(["lint", "3 digits", "--pos", "123", "--neg", "12"])
        assert code == 0
        assert "no diagnostics" in capsys.readouterr().out

    def test_conflicting_examples_exit_nonzero(self, capsys):
        code = main(["lint", "broken", "--pos", "abc", "--neg", "abc"])
        captured = capsys.readouterr()
        assert code == 1
        assert "conflicting-examples" in captured.out
        assert "statically unsatisfiable" in captured.err

    def test_json_output_is_machine_readable(self, capsys):
        code = main(
            ["lint", "broken", "--pos", "abc", "--neg", "abc", "--json"]
        )
        assert code == 1
        body = json.loads(capsys.readouterr().out)
        assert body["satisfiable"] is False
        assert any(
            diag["code"] == "conflicting-examples" for diag in body["diagnostics"]
        )

    def test_sketch_diagnostics(self, capsys):
        code = main(
            [
                "lint",
                "letters",
                "--pos", "123",
                "--neg", "abc",
                "--sketch", "KleeneStar(<let>)",
            ]
        )
        # Sketches are hints, so a conflict is a warning, not an error.
        assert code == 0
        captured = capsys.readouterr()
        assert "warning: sketch-rejects-positive" in captured.out
        assert "0 error(s)" in captured.err
