"""Pins for the two StackOverflow tasks that once took minutes per cold solve.

``stackoverflow-034`` and ``stackoverflow-046`` used to run past two minutes
at a 50-expansion cap, nearly all of it spent compiling automata for
membership queries.  Membership is now answered by the match-set evaluator
alone, so each solve is bounded by its expansion cap (about a second).  The
tests pin both halves of that: the whole expansion budget is spent, and
nothing in :mod:`repro.automata` compiles during the solve.
"""

import pytest

from repro.api import NlSketchProvider, Problem, Session
from repro.automata import compiler
from repro.datasets import stackoverflow_dataset
from repro.nlp.sketch_gen import SemanticParser
from repro.synthesis.config import SynthesisConfig

#: Budget and engine timeout that never bind: the expansion cap ends every
#: sketch's search.
UNBOUNDED_SECONDS = 1.0e6
CAP = 50
SKETCHES = 25


def _no_compile(*args, **kwargs):
    raise AssertionError("the engine compiled an automaton")


@pytest.mark.parametrize("task_id", ["stackoverflow-034", "stackoverflow-046"])
def test_cold_solve_spends_its_cap_without_compiling(task_id, monkeypatch):
    # Building the dataset samples its examples on the automata backend, so
    # compilation is closed only after it is loaded.  Every automaton the
    # package builds starts from ``_Builder.build``.
    task = next(b for b in stackoverflow_dataset() if b.benchmark_id == task_id)
    monkeypatch.setattr(compiler._Builder, "build", _no_compile)
    session = Session(
        provider=NlSketchProvider(SemanticParser(), num_sketches=SKETCHES),
        config=SynthesisConfig(max_expansions=CAP, timeout=UNBOUNDED_SECONDS),
    )
    problem = Problem(
        task.description, task.positive, task.negative, k=3, budget=UNBOUNDED_SECONDS
    )
    report = session.solve(problem)
    assert len(report.sketches) == SKETCHES
    assert report.total_expansions == SKETCHES * CAP
