"""Configuration of the PBE engine and its ablation variants."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class EngineVariant(Enum):
    """The three engine variants compared in the ablation study (Figure 18)."""

    #: Plain enumerative search: no approximation pruning, no symbolic integers.
    ENUM = "regel-enum"
    #: Approximation-based pruning only (Section 4.1).
    APPROX = "regel-approx"
    #: The full engine: approximation pruning + symbolic integers (Sections 4.1 + 4.2).
    FULL = "regel"


@dataclass
class SynthesisConfig:
    """Tunable parameters of the synthesis engine.

    The defaults correspond to the full Regel configuration; the ablation
    variants are obtained through :meth:`for_variant`.
    """

    #: Depth bound ``d`` used for constrained holes (Section 3.2 remark).
    hole_depth: int = 3
    #: Upper bound MAX for symbolic integers (Figure 13, rule 3).
    max_kappa: int = 20
    #: Wall-clock budget in seconds for one sketch completion.
    timeout: float = 20.0
    #: Hard cap on worklist expansions (protects against pathological sketches).
    max_expansions: int = 60_000
    #: Number of concrete regexes requested (the engine stops after finding them).
    max_results: int = 1
    #: Use over-/under-approximation pruning (Section 4.1).
    use_approximation: bool = True
    #: Use symbolic integers + constraint solving (Section 4.2); when False the
    #: Repeat-family integer arguments are enumerated explicitly.
    use_symbolic_ints: bool = True
    #: Cap on concrete integer values enumerated when symbolic integers are off.
    max_enum_int: int = 8
    #: Cap on models enumerated per symbolic regex by InferConstants.
    max_models_per_symbolic: int = 24
    #: Use the subsumption heuristics that skip redundant membership queries
    #: (Section 6, "Eliminating membership queries").
    use_subsumption: bool = True
    #: Extra literal characters (beyond predefined classes) allowed as leaves;
    #: by default literals are harvested from the positive examples.
    extra_literals: str = ""

    def for_variant(self, variant: EngineVariant) -> "SynthesisConfig":
        """Return a copy of this configuration specialised to an ablation variant."""
        from dataclasses import replace

        if variant is EngineVariant.FULL:
            return replace(self, use_approximation=True, use_symbolic_ints=True)
        if variant is EngineVariant.APPROX:
            return replace(self, use_approximation=True, use_symbolic_ints=False)
        if variant is EngineVariant.ENUM:
            return replace(self, use_approximation=False, use_symbolic_ints=False)
        raise ValueError(f"unknown variant {variant!r}")
