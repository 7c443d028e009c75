"""Machine-speed-independent pins of cold StackOverflow solves.

Every solve here runs under a per-sketch expansion cap with wall-clock
budgets that never bind, so its outcome and its work are deterministic:

* ``stackoverflow-034`` and ``stackoverflow-046`` used to run past two
  minutes at a 50-expansion cap, nearly all of it spent compiling automata
  for membership queries.  Membership is now answered by the match-set
  evaluator alone, so each solve is bounded by its expansion cap (about a
  second).  Their tests pin both halves of that: the whole expansion budget
  is spent, and nothing in :mod:`repro.automata` compiles during the solve.
* The panel pin solves every tenth task (``stackoverflow-000``, ``-010``, …,
  ``-060``) with the untrained parser and compares against the golden file
  ``fixtures/stackoverflow_panel_pin.json``: the ranked solutions and each
  attempted sketch's ``(index, expansions, pruned)`` exactly, and the summed
  match-set computations (``eval_cache_misses``) and solver propagations as
  upper bounds.  Any change to the search order, pruning or constant
  inference shows up here as a diff; a change that does more work for the
  same answers shows up as a broken bound.  A deliberate behaviour change
  regenerates the golden file with ``python tests/test_stackoverflow_pins.py``
  (from the repository root, with ``src`` on ``PYTHONPATH``), which first
  prints per task the fields that moved, and explains the diff.
* The work pins bound, per panel task, the successors the engine builds
  (``replace_node`` calls), the models it searches for
  (``SolverInstance.solve`` calls) and the open nodes whose expansions it
  derives (``label_expansions`` calls).  The lazy worklist builds a
  successor and searches for a model only when it reaches the top: 17,296
  ``replace_node`` and 594 solver calls on the panel, where building every
  expansion and inferring every model of a popped partial takes 62,926 and
  1,454.  A run derives each open node's expansions once: 913 derivations on
  the panel, where deriving them at every pop takes 7,099.
* The uncapped pins solve ``stackoverflow-030`` and ``-050`` for one
  answer with no expansion cap.  Rank-first turns give the top-ranked
  sketch as many pops as all the others together, and on these tasks it
  answers within its first turn, so it is the only sketch attempted and the
  work to the first answer is bounded.  Round-robin turns of 50 pops spent
  10,817 and 13,231 expansions before the first answer.
"""

import importlib
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.api import NlSketchProvider, Problem, RunReport, Session
from repro.automata import compiler
from repro.datasets import stackoverflow_dataset
from repro.nlp.sketch_gen import SemanticParser
from repro.solver.solver import SolverInstance
from repro.synthesis import engine
from repro.synthesis.config import SynthesisConfig

#: Budget and engine timeout that never bind: the expansion cap ends every
#: sketch's search.
UNBOUNDED_SECONDS = 1.0e6
CAP = 50
SKETCHES = 25
K = 3

PANEL_PIN = Path(__file__).parent / "fixtures" / "stackoverflow_panel_pin.json"
PANEL = [f"stackoverflow-{index:03d}" for index in range(0, 62, 10)]
#: Upper bounds on the work of each panel task: ``replace_node``,
#: ``SolverInstance.solve`` and ``label_expansions`` calls.
PANEL_WORK = {
    "stackoverflow-000": (3311, 16, 121),
    "stackoverflow-010": (1974, 0, 166),
    "stackoverflow-020": (1929, 380, 102),
    "stackoverflow-030": (4035, 50, 145),
    "stackoverflow-040": (2110, 8, 126),
    "stackoverflow-050": (2860, 0, 145),
    "stackoverflow-060": (1077, 140, 108),
}
#: Upper bounds on the expansions to the first answer with no cap.
UNCAPPED_FIRST_ANSWER = {"stackoverflow-030": 745, "stackoverflow-050": 628}


@pytest.fixture(scope="module")
def tasks():
    return {benchmark.benchmark_id: benchmark for benchmark in stackoverflow_dataset()}


def _solve(task) -> RunReport:
    session = Session(
        provider=NlSketchProvider(SemanticParser(), num_sketches=SKETCHES),
        config=SynthesisConfig(max_expansions=CAP, timeout=UNBOUNDED_SECONDS),
    )
    problem = Problem(
        task.description, task.positive, task.negative, k=K, budget=UNBOUNDED_SECONDS
    )
    return session.solve(problem)


def _observed(report: RunReport) -> dict:
    return {
        "solutions": [solution.regex for solution in report.solutions],
        "sketches": [[s.index, s.expansions, s.pruned] for s in report.sketches],
        "eval_cache_misses": sum(s.eval_cache_misses for s in report.sketches),
        "solver_propagations": sum(s.solver_propagations for s in report.sketches),
    }


def _no_compile(*args, **kwargs):
    raise AssertionError("the engine compiled an automaton")


@pytest.mark.parametrize("task_id", ["stackoverflow-034", "stackoverflow-046"])
def test_cold_solve_spends_its_cap_without_compiling(task_id, tasks, monkeypatch):
    # Building the dataset samples its examples on the automata backend, so
    # compilation is closed only after it is loaded.  Every automaton the
    # package builds starts from ``_Builder.build``.
    monkeypatch.setattr(compiler._Builder, "build", _no_compile)
    report = _solve(tasks[task_id])
    assert len(report.sketches) == SKETCHES
    assert report.total_expansions == SKETCHES * CAP


@pytest.mark.parametrize("task_id", PANEL)
def test_panel_behaviour_and_work_are_pinned(task_id, tasks):
    golden = json.loads(PANEL_PIN.read_text(encoding="utf-8"))[task_id]
    observed = _observed(_solve(tasks[task_id]))
    assert observed["solutions"] == golden["solutions"]
    assert len(observed["sketches"]) == SKETCHES
    assert observed["sketches"] == golden["sketches"]
    assert observed["eval_cache_misses"] <= golden["eval_cache_misses"]
    assert observed["solver_propagations"] <= golden["solver_propagations"]


@pytest.mark.parametrize("task_id", PANEL)
def test_panel_builds_only_what_it_reaches(task_id, tasks, monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ``repro.synthesis.expand`` is shadowed by the function of that name in
    # the package namespace, so the module is looked up by its full name.
    for module in (engine, importlib.import_module("repro.synthesis.expand")):
        monkeypatch.setattr(module, "replace_node", counted("replace_node", module.replace_node))
    monkeypatch.setattr(SolverInstance, "solve", counted("solve", SolverInstance.solve))
    monkeypatch.setattr(
        engine, "label_expansions", counted("label_expansions", engine.label_expansions)
    )
    _solve(tasks[task_id])
    assert calls["replace_node"] <= PANEL_WORK[task_id][0]
    assert calls["solve"] <= PANEL_WORK[task_id][1]
    assert calls["label_expansions"] <= PANEL_WORK[task_id][2]


@pytest.mark.parametrize("task_id", sorted(UNCAPPED_FIRST_ANSWER))
def test_uncapped_first_answer_comes_from_the_top_sketch(task_id, tasks):
    task = tasks[task_id]
    session = Session(
        provider=NlSketchProvider(SemanticParser(), num_sketches=SKETCHES),
        config=SynthesisConfig(timeout=UNBOUNDED_SECONDS),
    )
    report = session.solve(
        Problem(task.description, task.positive, task.negative, k=1, budget=UNBOUNDED_SECONDS)
    )
    assert report.solved and report.best.sketch_index == 0
    assert [sketch.index for sketch in report.sketches] == [0]
    assert report.total_expansions <= UNCAPPED_FIRST_ANSWER[task_id]


def _differences(golden: dict, observed: dict) -> list:
    """The fields of one task's pin that ``observed`` changes, as printable lines."""
    lines = [
        f"{name}: {golden.get(name)} -> {observed[name]}"
        for name in ("solutions", "eval_cache_misses", "solver_propagations")
        if golden.get(name) != observed[name]
    ]
    old, new = golden.get("sketches", []), observed["sketches"]
    if len(old) != len(new):
        lines.append(f"sketches attempted: {len(old)} -> {len(new)}")
    for column, name in enumerate(("index", "expansions", "pruned")):
        changed = sum(a[column] != b[column] for a, b in zip(old, new))
        if changed:
            lines.append(
                f"sketches[].{name}: differs on {changed} of {len(new)}, total "
                f"{sum(row[column] for row in old)} -> {sum(row[column] for row in new)}"
            )
    return lines


def _write_panel_pin() -> None:
    """Regenerate the golden file, one line per five sketches.

    Before writing, print per task which fields differ from the committed
    file, so that a regeneration shows what it moved.
    """
    everything = {b.benchmark_id: b for b in stackoverflow_dataset()}
    committed = json.loads(PANEL_PIN.read_text(encoding="utf-8")) if PANEL_PIN.exists() else {}
    blocks = []
    for task_id in PANEL:
        observed = _observed(_solve(everything[task_id]))
        lines = _differences(committed.get(task_id, {}), observed)
        print(f"{task_id}:" + ("" if lines else " unchanged"))
        for line in lines:
            print(f"  {line}")
        triples = [json.dumps(triple) for triple in observed["sketches"]]
        rows = ",\n      ".join(
            ", ".join(triples[start:start + 5]) for start in range(0, len(triples), 5)
        )
        blocks.append(
            f'  "{task_id}": {{\n'
            f'    "solutions": {json.dumps(observed["solutions"])},\n'
            f'    "sketches": [\n      {rows}\n    ],\n'
            f'    "eval_cache_misses": {observed["eval_cache_misses"]},\n'
            f'    "solver_propagations": {observed["solver_propagations"]}\n'
            "  }"
        )
    PANEL_PIN.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    _write_panel_pin()
