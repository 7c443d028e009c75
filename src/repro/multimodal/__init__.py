"""The interactive example-feedback protocol used by the evaluation (Section 8.1).

The end-to-end system of Figure 1 — semantic parser (:mod:`repro.nlp`) plus
sketch-guided PBE engine (:mod:`repro.synthesis`) — is
:class:`repro.api.Session`; this package drives any such solver through the
protocol's rounds of added examples.
"""

from repro.multimodal.interaction import InteractiveSession, IterationOutcome, run_interactive

__all__ = [
    "InteractiveSession",
    "IterationOutcome",
    "run_interactive",
]
