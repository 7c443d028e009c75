"""repro — a from-scratch reproduction of Regel (PLDI 2020).

"Multi-Modal Synthesis of Regular Expressions" (Chen, Wang, Ye, Durrett,
Dillig): regex synthesis from a combination of natural language and
positive/negative examples.

Public entry points:

* :mod:`repro.api` — the pipeline API (``Problem`` → ``SketchProvider`` →
  ``Session`` → ``RunReport``), the tool's interface,
* :func:`repro.synthesis.synthesize` — the sketch-guided PBE engine,
* :class:`repro.nlp.SemanticParser` — English → ranked h-sketches,
* :mod:`repro.datasets` — the two evaluation corpora,
* :mod:`repro.experiments` — regeneration of every figure in Section 8.
"""

__version__ = "1.2.0"

from repro.api import (
    CancelToken,
    NlSketchProvider,
    PbeOnlyProvider,
    Problem,
    RunReport,
    Session,
    SketchReport,
    Solution,
    StaticSketchProvider,
)
from repro.synthesis import SynthesisConfig, EngineVariant, synthesize
from repro.nlp.sketch_gen import SemanticParser

__all__ = [
    "Problem",
    "Solution",
    "SketchReport",
    "RunReport",
    "Session",
    "CancelToken",
    "NlSketchProvider",
    "StaticSketchProvider",
    "PbeOnlyProvider",
    "SynthesisConfig",
    "EngineVariant",
    "synthesize",
    "SemanticParser",
    "__version__",
]
