"""Pipeline-style synthesis API (the service-oriented face of the tool).

The pipeline decomposes one synthesis request into independently schedulable
per-sketch subproblems, mirroring the paper's run-one-engine-per-sketch
deployment:

.. code-block:: text

    Problem ──▶ SketchProvider ──▶ interleave ──▶ Session ──▶ RunReport
    (frozen     (NL parser /       (rank-first    (solve /    (solutions +
     spec)       static list /      turns, one    streaming)  per-sketch
                 single hole)       process)                  telemetry)

Quick example::

    from repro.api import Problem, Session

    session = Session()
    report = session.solve(Problem("3 digits", positive=["123"], negative=["12"]))
    print(report.best.regex)

Everything in a :class:`Problem`, :class:`Solution`, and :class:`RunReport`
round-trips through JSON, so requests and results can be queued, batched,
and shipped across processes or services.
"""

from repro.api.problem import Problem
from repro.api.providers import (
    NlSketchProvider,
    PbeOnlyProvider,
    SketchProvider,
    StaticSketchProvider,
)
from repro.api.results import RunReport, SketchReport, Solution
from repro.api.schedulers import CancelToken, Finished, Found
from repro.api.session import Session

__all__ = [
    "Problem",
    "Solution",
    "SketchReport",
    "RunReport",
    "SketchProvider",
    "NlSketchProvider",
    "StaticSketchProvider",
    "PbeOnlyProvider",
    "CancelToken",
    "Found",
    "Finished",
    "Session",
]
