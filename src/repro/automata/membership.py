"""Name-only remnant of the retired compiled-membership evaluator.

Membership is evaluated by :class:`repro.dsl.semantics.Matcher` alone.  This
module exists only because ``perfbench/tracing.py`` still wraps
:func:`membership_automaton`; nothing in the package imports it.
"""


def membership_automaton(regex):
    """Never called by the program; kept so the tracer's hook resolves."""
    return None
