"""Abstract-interpretation static analysis of sketches and partial regexes.

The analyzer computes cheap, sound :class:`~repro.analysis.facts.Facts`
(match-length intervals, first/last/required character sets, nullability,
emptiness/universality) per interned subtree and serves three consumers:

* **diagnostics** — :func:`~repro.analysis.diagnostics.lint_problem` and
  friends power the ``regel lint`` CLI subcommand;
* **the service boundary** — ``POST /v1/lint`` and the pre-queue 422
  rejection of statically-unsatisfiable problems
  (:func:`~repro.analysis.diagnostics.problem_unsatisfiable`);
* **corpus vetting** — :mod:`repro.corpus.generate` drops generated sketches
  whose facts already reject a positive example.

The PBE engine does not consult the analyzer: with unbounded symbolic
integers, approximation pruning rejects every partial that
:func:`~repro.analysis.check.partial_prune_reason` does (pinned in
``tests/test_analysis.py``), and a facts pre-filter in front of it cost more
on the cold benchmark than the membership queries it saved.

Soundness is the package-wide contract: the analysis may answer "maybe", it
never produces a wrong "no" (pinned by the differential tests in
``tests/test_analysis.py``).
"""

from repro.analysis.analyzer import (
    ANALYSIS_CACHE_STATS,
    facts_of_partial,
    facts_of_regex,
    facts_of_sketch,
)
from repro.analysis.check import partial_prune_reason, static_infeasible
from repro.analysis.diagnostics import (
    Diagnostic,
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    has_errors,
    lint_examples,
    lint_problem,
    lint_regex,
    lint_sketch,
    problem_unsatisfiable,
)
from repro.analysis.facts import EMPTY_FACTS, EPSILON_FACTS, TOP_FACTS, Facts

__all__ = [
    "ANALYSIS_CACHE_STATS",
    "Diagnostic",
    "EMPTY_FACTS",
    "EPSILON_FACTS",
    "Facts",
    "SEVERITY_ERROR",
    "SEVERITY_INFO",
    "SEVERITY_WARNING",
    "TOP_FACTS",
    "facts_of_partial",
    "facts_of_regex",
    "facts_of_sketch",
    "has_errors",
    "lint_examples",
    "lint_problem",
    "lint_regex",
    "lint_sketch",
    "partial_prune_reason",
    "problem_unsatisfiable",
    "static_infeasible",
]
