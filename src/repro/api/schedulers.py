"""The portfolio scheduler: how engine instances share the wall-clock budget.

The paper's tool runs one PBE engine *per sketch in parallel* and takes
results as they arrive.  :func:`interleave` reproduces that portfolio in one
process: it steps resumable :class:`~repro.synthesis.engine.SynthesisRun`
instances in turns and is a generator that yields :class:`Found` events (a
consistent regex, as soon as it is discovered) and :class:`Finished` events
(per-sketch telemetry), so consumers can stream results before the budget
elapses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from repro.dsl import ast as rast
from repro.sketch.ast import Sketch
from repro.sketch.printer import sketch_to_string
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.engine import SynthesisResult, Synthesizer
from repro.synthesis.examples import Examples


@dataclass(frozen=True)
class Found:
    """A consistent regex discovered by the engine running sketch ``index``."""

    index: int
    regex: rast.Regex


@dataclass(frozen=True)
class Finished:
    """Sketch ``index`` will receive no more engine time; ``result`` is final."""

    index: int
    sketch: str
    result: SynthesisResult


SchedulerEvent = Union[Found, Finished]


class CancelToken:
    """Cooperative cancellation flag shared between a caller and a scheduler."""

    def __init__(self) -> None:
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled


#: Worklist pops of one turn of a run that does not open a round.  Every
#: paused run keeps its search state alive, so shorter turns hold more memory
#: at once; under a 50-expansion cap a sketch finishes in one turn, exactly as
#: if the sketches ran one after another.
SLICE_EXPANSIONS = 50


def interleave(
    sketches: Sequence[Sketch],
    examples: Examples,
    config: SynthesisConfig,
    budget: float,
    cancel: CancelToken,
) -> Iterator[SchedulerEvent]:
    """Spend one wall-clock budget on all sketches' engines in rank-first turns.

    Each round walks the live runs in rank order.  The run that opens it,
    the top-ranked live run, steps ``SLICE_EXPANSIONS * max(1, live - 1)``
    worklist pops, as many as all the others together, and every other
    live run steps :data:`SLICE_EXPANSIONS`.  So the sketch the parser likes
    best gets half the search, yet an easy sketch ranked behind a
    pathological one still gets engine time long before the budget runs out
    — the portfolio's anytime behaviour.  With one or two live runs every
    turn is :data:`SLICE_EXPANSIONS` pops.

    The wall clock only guards a turn: it lasts at most its share of the
    remaining budget, ``remaining * turn / pops of one round``, and what is
    left of the run's own ``config.timeout``; a run that has spent its
    timeout is finished as timed out.  A finished run leaves the round at
    once, so its search state is freed and the next turns are sized by the
    runs still live; the run ranked next opens the next round, not the rest
    of this one.
    """
    deadline = time.monotonic() + budget
    live = [
        [index, sketch, Synthesizer(config).start(sketch, examples), False]
        for index, sketch in enumerate(sketches)
    ]
    position, opens_round = 0, True
    while live and not cancel.cancelled:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        if position == len(live):
            position, opens_round = 0, True
        entry = live[position]
        index, sketch, run, _ = entry
        entry[3] = True  # this sketch has now received engine time
        others = len(live) - 1
        top_turn = SLICE_EXPANSIONS * max(1, others)
        turn = top_turn if opens_round else SLICE_EXPANSIONS
        opens_round = False
        result = run.result
        before = len(result.regexes)
        run.step(
            min(
                remaining * turn / (top_turn + SLICE_EXPANSIONS * others),
                config.timeout - result.elapsed,
            ),
            turn,
        )
        for regex in result.regexes[before:]:
            yield Found(index, regex)
        if not run.done and result.elapsed < config.timeout:
            position += 1
            continue
        if not run.done:
            result.timed_out = True
        del live[position]
        yield Finished(index, sketch_to_string(sketch), result)
    # Sketches that received at least one turn were attempted but ran out of
    # budget (or the caller cancelled); never-started sketches are not
    # reported, so telemetry counts genuine attempts only.  Not reached when
    # the consumer closes the generator — a closed stream cannot accept
    # further telemetry anyway.
    for index, sketch, run, started in live:
        if started:
            run.result.timed_out = True
            yield Finished(index, sketch_to_string(sketch), run.result)
