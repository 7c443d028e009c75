"""Baseline systems compared against Regel in Section 8.1.

* :class:`repro.baselines.deepregex.DeepRegexBaseline` — NL-only translation
  (a stand-in for the seq2seq DeepRegex system; see DESIGN.md for the
  substitution rationale),
* Regel-PBE — examples-only synthesis starting from a completely
  unconstrained sketch — is a :class:`repro.api.Session` with the
  :class:`repro.api.PbeOnlyProvider`.
"""

from repro.baselines.deepregex import DeepRegexBaseline

__all__ = ["DeepRegexBaseline"]
