"""The lazy agenda: an entry's work is done when it reaches the top.

:class:`~repro.synthesis.engine.SynthesisRun` pushes the expansions of a
partial unbuilt and builds, deduplicates and checks one (the Section 4.1
approximation check) when it reaches the top of the worklist; a symbolic
partial goes on as one stream of ``infer_constants`` models, advanced one
model at a time at the top.  Two properties are pinned here:

* **Same search.**  ``EagerRun``, the oracle, is the engine with the eager
  discipline: every expansion is built, deduplicated and checked before it
  is pushed, only the feasible ones go on the worklist, and a symbolic
  partial's models are all inferred when it is popped.  Both runs must expand
  the same partials in the same order, so they return the same ranked regexes
  with the same per-sketch ``(expansions, solved, timed_out)``.  The lazy run
  checks and solves only what the search reaches, so its ``pruned`` and its
  solver propagations are at most the oracle's.
* **Check once.**  With ``engine.infeasible`` wrapped, no partial is checked
  twice in a run, every popped partial other than the initial one and the
  ``infer_constants`` candidates was checked before it was popped, and a run
  makes at most ``expansions + pruned + 1`` checks (the one left over is a
  feasible top that the run stopped before popping).
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import NlSketchProvider, Problem, Session, StaticSketchProvider
from repro.datasets import stackoverflow_dataset
from repro.dsl.printer import to_dsl_string
from repro.nlp.sketch_gen import SemanticParser
from repro.sketch import parse_sketch
from repro.synthesis import engine
from repro.synthesis.config import EngineVariant, SynthesisConfig
from repro.synthesis.examples import Examples
from repro.synthesis.expand import initial_partial
from repro.synthesis.partial import partial_size, replace_node

SECTION2_SKETCH = (
    "Concat(Hole(RepeatRange(<num>,1,15)),Hole(Optional(Concat(<.>,RepeatRange(<num>,1,3)))))"
)
SECTION2_POSITIVES = ["123456789.123", "123456789123456.12", "12345.1", "123456789123456"]
SECTION2_NEGATIVES = ["1234567891234567", "123.1234", "1.12345", ".1234"]
PANEL = [f"stackoverflow-{index:03d}" for index in range(0, 62, 10)]
UNBOUNDED_SECONDS = 1.0e6


class EagerRun(engine.SynthesisRun):
    """The eager discipline: an entry's work is done when it is pushed.

    An expansion is built, deduplicated and checked before it is pushed, and
    only the feasible ones go on the worklist; a symbolic partial's model
    stream is drained at once into entries with consecutive ticks.  Every
    entry is pushed settled, so ``_settle`` does no work and the loop is the
    one of Fig. 9.
    """

    def _push(self, size, partial=None, source=None):
        if isinstance(source, tuple):
            successor = replace_node(*source)
            assert partial_size(successor) == size
            if successor in self._seen:
                return
            self._seen.add(successor)
            if engine.infeasible(successor, self.examples, self.config):
                self.result.pruned += 1
                return
            super()._push(size, successor)
        elif source is not None:
            for candidate in source:
                super()._push(size, candidate)
        else:
            super()._push(size, partial)


@pytest.fixture
def eager(monkeypatch):
    """Within the test, every engine run the package starts is an ``EagerRun``."""

    def use_eager_runs():
        monkeypatch.setattr(engine, "SynthesisRun", EagerRun)

    return use_eager_runs


def _run_outcome(result):
    regexes = [to_dsl_string(regex) for regex in result.regexes]
    return regexes, result.expansions, result.solved, result.timed_out


def _report_outcome(report):
    solutions = [solution.regex for solution in report.solutions]
    work = [(s.index, s.expansions, s.solved, s.timed_out) for s in report.sketches]
    return solutions, work


def _assert_same_search(lazy, eager):
    assert _report_outcome(lazy) == _report_outcome(eager)
    for lazy_sketch, eager_sketch in zip(lazy.sketches, eager.sketches):
        assert lazy_sketch.pruned <= eager_sketch.pruned
        assert lazy_sketch.solver_propagations <= eager_sketch.solver_propagations


def _synthesize(run_class, sketch, examples, config):
    run = run_class(engine.Synthesizer(config), parse_sketch(sketch), examples)
    return run.step(config.timeout)


@pytest.fixture(scope="module")
def tasks():
    return {benchmark.benchmark_id: benchmark for benchmark in stackoverflow_dataset()}


def _solve_panel_task(task):
    session = Session(
        provider=NlSketchProvider(SemanticParser(), num_sketches=25),
        config=SynthesisConfig(max_expansions=50, timeout=UNBOUNDED_SECONDS),
    )
    problem = Problem(task.description, task.positive, task.negative, k=3, budget=UNBOUNDED_SECONDS)
    return session.solve(problem)


@pytest.mark.parametrize("task_id", PANEL)
def test_panel_search_matches_eager_oracle(task_id, tasks, eager):
    lazy = _solve_panel_task(tasks[task_id])
    eager()
    _assert_same_search(lazy, _solve_panel_task(tasks[task_id]))


def test_section2_search_matches_eager_oracle():
    examples = Examples(SECTION2_POSITIVES, SECTION2_NEGATIVES)
    config = SynthesisConfig(hole_depth=2, timeout=UNBOUNDED_SECONDS)
    lazy = _synthesize(engine.SynthesisRun, SECTION2_SKETCH, examples, config)
    oracle = _synthesize(EagerRun, SECTION2_SKETCH, examples, config)
    assert lazy.solved
    assert _run_outcome(lazy) == _run_outcome(oracle)
    assert (lazy.pruned, oracle.pruned) == (463, 511)


def _solve_in_resumed_turns():
    """A capped three-sketch problem whose runs resume across several turns."""
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
    report = Session(provider=StaticSketchProvider(sketches), config=config).solve(problem)
    assert report.solved and max(s.expansions for s in report.sketches) == 150
    return report


def test_resumed_turns_match_eager_oracle(eager):
    lazy = _solve_in_resumed_turns()
    eager()
    _assert_same_search(lazy, _solve_in_resumed_turns())


def _stepped_one_pop_at_a_time(sketch, examples, config):
    run = engine.Synthesizer(config).start(sketch, examples)
    while not run.done:
        result = run.step(config.timeout, max_expansions=1)
    return result


def _work(result):
    return _run_outcome(result) + (result.pruned, result.solver_propagations)


def test_section2_stepped_one_pop_at_a_time_matches_one_step():
    """A settled top left on the worklist between steps is the next one popped."""
    examples = Examples(SECTION2_POSITIVES, SECTION2_NEGATIVES)
    config = SynthesisConfig(hole_depth=2, timeout=UNBOUNDED_SECONDS)
    whole = _synthesize(engine.SynthesisRun, SECTION2_SKETCH, examples, config)
    stepped = _stepped_one_pop_at_a_time(parse_sketch(SECTION2_SKETCH), examples, config)
    assert whole.solved
    assert _work(stepped) == _work(whole)


def test_symbolic_panel_task_stepped_one_pop_at_a_time_matches_one_step(tasks):
    """A model stream left on the worklist between steps resumes where it stopped.

    ``stackoverflow-030`` is the panel task that infers the most models.
    """
    task = tasks["stackoverflow-030"]
    examples = Examples(task.positive, task.negative)
    config = SynthesisConfig(max_expansions=50, timeout=UNBOUNDED_SECONDS, max_results=3)
    propagations = 0
    for sketch in SemanticParser().sketches(task.description, k=25):
        whole = engine.Synthesizer(config).start(sketch, examples).step(config.timeout)
        assert _work(_stepped_one_pop_at_a_time(sketch, examples, config)) == _work(whole)
        propagations += whole.solver_propagations
    assert propagations > 0


_LEAVES = ["<num>", "<let>", "<cap>", "<.>", "<->"]
_holes = st.lists(st.sampled_from(_LEAVES), max_size=2, unique=True).map(
    lambda components: f"Hole({','.join(components)})"
)
_sketches = st.recursive(
    st.one_of(st.sampled_from(_LEAVES), _holes),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["Concat", "Or"]), inner, inner).map(
            lambda parts: f"{parts[0]}({parts[1]},{parts[2]})"
        ),
        st.tuples(st.sampled_from(["Optional", "KleeneStar", "Contains"]), inner).map(
            lambda parts: f"{parts[0]}({parts[1]})"
        ),
        st.tuples(inner, st.sampled_from(["2", "?"])).map(
            lambda parts: f"Repeat({parts[0]},{parts[1]})"
        ),
    ),
    max_leaves=3,
)
_strings = st.lists(st.text(alphabet="aB1-.", max_size=4), min_size=1, max_size=3, unique=True)


@st.composite
def _problems(draw):
    positive = draw(_strings)
    negative = [s for s in draw(_strings) if s not in positive]
    config = SynthesisConfig(
        hole_depth=draw(st.integers(1, 2)),
        timeout=UNBOUNDED_SECONDS,
        max_expansions=draw(st.integers(1, 40)),
        max_results=draw(st.integers(1, 3)),
    ).for_variant(draw(st.sampled_from(EngineVariant)))
    return draw(_sketches), Examples(positive, negative), config


@settings(max_examples=60, deadline=None)
@given(problem=_problems())
def test_small_sketches_match_eager_oracle(problem):
    sketch, examples, config = problem
    lazy = _synthesize(engine.SynthesisRun, sketch, examples, config)
    oracle = _synthesize(EagerRun, sketch, examples, config)
    assert _run_outcome(lazy) == _run_outcome(oracle)
    assert lazy.pruned <= oracle.pruned
    if not config.use_approximation:
        assert lazy.pruned == oracle.pruned == 0


class CheckLog:
    """Per-run record of approximation checks and worklist pops.

    Every check and pop happens inside ``SynthesisRun.step``, so the run
    being stepped owns them.
    """

    def __init__(self, monkeypatch):
        self.run = None
        self.runs = []
        self.checked = defaultdict(list)
        self.exempt = defaultdict(set)
        self.unchecked_pops = defaultdict(list)
        self.candidate_pops = 0
        step = engine.SynthesisRun.step
        infeasible = engine.infeasible
        infer_constants = engine.infer_constants
        is_concrete = engine.is_concrete

        def logged_step(run, *args, **kwargs):
            if run not in self.runs:
                self.runs.append(run)
                self.exempt[run].add(initial_partial(run.sketch))
            self.run = run
            try:
                return step(run, *args, **kwargs)
            finally:
                self.run = None

        def logged_infeasible(partial, *args, **kwargs):
            self.checked[self.run].append(partial)
            return infeasible(partial, *args, **kwargs)

        def logged_infer_constants(*args, **kwargs):
            for candidate in infer_constants(*args, **kwargs):
                self.exempt[self.run].add(candidate)
                yield candidate

        def logged_is_concrete(partial):
            # The loop asks this of every partial it pops, once.
            run = self.run
            if partial not in self.checked[run]:
                if partial not in self.exempt[run]:
                    self.unchecked_pops[run].append(partial)
                elif partial is not initial_partial(run.sketch):
                    self.candidate_pops += 1
            return is_concrete(partial)

        monkeypatch.setattr(engine.SynthesisRun, "step", logged_step)
        monkeypatch.setattr(engine, "infeasible", logged_infeasible)
        monkeypatch.setattr(engine, "infer_constants", logged_infer_constants)
        monkeypatch.setattr(engine, "is_concrete", logged_is_concrete)

    def assert_checked_once(self):
        assert self.runs
        for run in self.runs:
            checked = self.checked[run]
            assert len(checked) == len(set(checked)), "a partial was checked twice"
            assert not self.unchecked_pops[run], "a partial was popped unchecked"
            assert len(checked) <= run.result.expansions + run.result.pruned + 1


def test_section2_checks_each_reached_partial_once(monkeypatch):
    log = CheckLog(monkeypatch)
    examples = Examples(SECTION2_POSITIVES, SECTION2_NEGATIVES)
    config = SynthesisConfig(hole_depth=2, timeout=UNBOUNDED_SECONDS)
    assert _synthesize(engine.SynthesisRun, SECTION2_SKETCH, examples, config).solved
    log.assert_checked_once()
    _synthesize(EagerRun, SECTION2_SKETCH, examples, config)
    lazy_run, eager_run = log.runs
    assert len(log.checked[lazy_run]) < len(log.checked[eager_run])


@pytest.mark.parametrize("task_id", ["stackoverflow-000", "stackoverflow-030"])
def test_panel_checks_each_reached_partial_once(task_id, tasks, monkeypatch):
    log = CheckLog(monkeypatch)
    report = _solve_panel_task(tasks[task_id])
    log.assert_checked_once()
    assert len(log.runs) == len(report.sketches)
    assert log.candidate_pops, "no infer_constants candidate was popped"


def test_resumed_turns_check_each_reached_partial_once(monkeypatch):
    """A run paused by its turn keeps its checked top; resuming does not re-check it."""
    log = CheckLog(monkeypatch)
    _solve_in_resumed_turns()
    log.assert_checked_once()
