"""Finite-automaton substrate.

The original Regel implementation relies on the Brics ``dk.brics.automaton``
Java library for language-level reasoning: membership queries, complement and
intersection (needed for ``Not`` and ``And``), and equivalence checks used in
the evaluation.  This package is a from-scratch Python replacement providing:

* :mod:`repro.automata.minterms` — partition of the concrete alphabet into
  equivalence classes so automata stay small,
* :mod:`repro.automata.nfa` / :mod:`repro.automata.dfa` — Thompson NFAs and
  deterministic automata with product, complement and Hopcroft minimisation,
* :mod:`repro.automata.compiler` — compilation of DSL regexes to automata,
* :mod:`repro.automata.operations` — equivalence / inclusion / witness
  extraction on compiled regexes,
* :mod:`repro.automata.sampling` — positive and near-miss negative example
  generation used to build the datasets (Section 7 of the paper).
"""

from repro.automata.minterms import Alphabet, alphabet_for
from repro.automata.nfa import NFA
from repro.automata.dfa import DFA
from repro.automata.compiler import CompiledRegex, compile_regex
from repro.automata.operations import (
    regex_equivalent,
    regex_included,
    difference_witness,
    language_nonempty,
)
from repro.automata.sampling import (
    EmptyLanguageError,
    SamplingError,
    UniversalLanguageError,
    enumerate_language,
    language_is_empty,
    language_is_universal,
    sample_positive,
    sample_negative,
    distinguishing_examples,
)

__all__ = [
    "Alphabet",
    "alphabet_for",
    "NFA",
    "DFA",
    "CompiledRegex",
    "compile_regex",
    "regex_equivalent",
    "regex_included",
    "difference_witness",
    "language_nonempty",
    "EmptyLanguageError",
    "SamplingError",
    "UniversalLanguageError",
    "enumerate_language",
    "language_is_empty",
    "language_is_universal",
    "sample_positive",
    "sample_negative",
    "distinguishing_examples",
]
