"""Example checks — the analyzer's verdict on a partial regex.

:func:`partial_prune_reason` decides from facts alone whether a partial can
still be completed into a regex consistent with the examples: when the facts
prove some positive example unmatchable, or some negative example
unavoidably matched, no completion can be consistent.  The engine does not
call it: with unbounded symbolic integers, approximation pruning rejects
every partial it rejects (pinned in ``tests/test_analysis.py``).  Lint
diagnostics, the service's 422 responses and corpus sketch vetting reason
with the same facts.

Soundness contract: a non-``None`` reason is a *proof* of infeasibility with
respect to the completions the engine can reach (symbolic integers bounded by
``SynthesisConfig.max_kappa``); ``None`` just means "maybe".
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.analyzer import facts_of_partial
from repro.analysis.facts import Facts
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.examples import Examples
from repro.synthesis.partial import PartialRegex


def _verdict(facts: Facts, examples: Examples) -> Optional[str]:
    for positive in examples.positive:
        reason = facts.reject_reason(positive)
        if reason is not None:
            return f"positive:{reason}"
    for negative in examples.negative:
        if facts.must_match(negative):
            return "negative:unavoidable"
    return None


def partial_prune_reason(
    partial: PartialRegex,
    examples: Examples,
    config: SynthesisConfig,
) -> Optional[str]:
    """Why ``partial`` provably cannot satisfy ``examples``, or ``None``.

    Reasons are ``"positive:<fact>"`` (some positive example cannot be in any
    completion's language) or ``"negative:unavoidable"`` (some negative
    example is in every completion's language).
    """
    if not config.use_approximation:
        return None
    kmax = config.max_kappa if config.use_symbolic_ints else None
    return _verdict(facts_of_partial(partial, config.hole_depth, kmax), examples)


def static_infeasible(
    partial: PartialRegex,
    examples: Examples,
    config: SynthesisConfig,
) -> bool:
    """Boolean form of :func:`partial_prune_reason`."""
    return partial_prune_reason(partial, examples, config) is not None
