"""Expansion of open nodes in partial regexes (Figure 10 of the paper).

``expand`` takes a partial regex and one of its open nodes and returns the set
of partial regexes obtained by instantiating that node one level, following
the inference rules of Figure 10:

* rule 1/2 — constrained holes are either filled with one of their hint
  components, or (when the depth bound allows) with an operator one of whose
  arguments carries the constrained hole at depth ``d-1`` while the sibling
  arguments become *free* positions (``□^{d-1}(C ∪ {S..})``),
* rule 3 — operator sketches expand into the operator applied to open nodes
  for their argument sketches,
* rule 4 — ``Repeat``-family sketches expand into the operator with fresh
  symbolic integers (or explicit integer enumeration for the ablation
  variants).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from typing import Iterable, List

from repro.dsl import ast as rast
from repro.sketch import ast as sast
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.partial import (
    FreeLabel,
    HoleLabel,
    PartialRegex,
    PLeaf,
    POp,
    POpen,
    SymInt,
    replace_node,
)

#: Operators without integer arguments, with their arities.
_F_OPERATORS: tuple[tuple[str, int], ...] = (
    ("StartsWith", 1),
    ("EndsWith", 1),
    ("Contains", 1),
    ("Not", 1),
    ("Optional", 1),
    ("KleeneStar", 1),
    ("Concat", 2),
    ("Or", 2),
    ("And", 2),
)

#: Operators with integer arguments, with the number of integer arguments.
_G_OPERATORS: tuple[tuple[str, int], ...] = (
    ("Repeat", 1),
    ("RepeatAtLeast", 1),
    ("RepeatRange", 2),
)


class SymIntFactory:
    """Generates fresh symbolic-integer names (``k1``, ``k2``, ...)."""

    def __init__(self) -> None:
        self._counter = count(1)

    def fresh(self) -> SymInt:
        return SymInt(f"k{next(self._counter)}")


def default_char_classes(literal_chars: str = "") -> list[rast.Regex]:
    """The leaf set ``C``: predefined classes plus example-derived literals.

    Single-character literals are restricted to characters appearing in the
    positive examples (plus any configured extras); this is the standard PBE
    move for keeping the constant space finite and matches how Regel's
    implementation seeds constants.
    """
    return list(_default_char_classes(literal_chars))


@lru_cache(maxsize=128)
def _default_char_classes(literal_chars: str) -> tuple[rast.Regex, ...]:
    # Cached per literal-character string: this runs for every free-position
    # expansion, which is one of the engine's hottest loops.
    leaves: list[rast.Regex] = [
        rast.NUM,
        rast.LET,
        rast.CAP,
        rast.LOW,
        rast.ANY,
        rast.ALPHANUM,
        rast.HEX,
        rast.SPEC,
    ]
    seen = set()
    for char in literal_chars:
        if char.isalnum() or char in seen:
            # Alphanumeric literals are almost never the intent; the predefined
            # classes cover them.  Punctuation literals (.,-,/ etc.) matter.
            continue
        seen.add(char)
        leaves.append(rast.literal(char))
    return tuple(leaves)


def initial_partial(sketch: sast.Sketch) -> POpen:
    """The root partial regex ``P0`` for a given h-sketch (line 2 of Figure 9)."""
    return POpen(sketch)


def expand(
    partial: PartialRegex,
    node: POpen,
    config: SynthesisConfig,
    symints: SymIntFactory,
    literal_chars: str = "",
) -> List[PartialRegex]:
    """All one-step expansions of ``node`` inside ``partial``."""
    subtrees = _expansions_of_label(node.label, config, symints, literal_chars)
    return [replace_node(partial, node, subtree) for subtree in subtrees]


# ---------------------------------------------------------------------------
# Label-level expansion
# ---------------------------------------------------------------------------

def _expansions_of_label(
    label,
    config: SynthesisConfig,
    symints: SymIntFactory,
    literal_chars: str,
) -> List[PartialRegex]:
    if isinstance(label, sast.ConcreteRegexSketch):
        return [PLeaf(label.regex)]
    if isinstance(label, sast.OpSketch):
        return [POp(label.op, tuple(POpen(arg) for arg in label.args))]
    if isinstance(label, sast.IntOpSketch):
        return _int_op_expansions(label.op, POpen(label.arg), label.ints, config, symints)
    if isinstance(label, sast.Hole):
        label = HoleLabel(label.components, config.hole_depth)
    if isinstance(label, HoleLabel) and not label.components:
        # An unconstrained hole (the Regel-PBE starting point) has no hint to
        # place, so it behaves exactly like a free position.
        label = FreeLabel((), label.depth)
    if isinstance(label, HoleLabel):
        return _hole_expansions(label, config, symints)
    if isinstance(label, FreeLabel):
        return _free_expansions(label, config, symints, literal_chars)
    raise TypeError(f"unknown open-node label: {label!r}")


def _int_op_expansions(
    op: str,
    child: PartialRegex,
    ints: Iterable[int | None],
    config: SynthesisConfig,
    symints: SymIntFactory,
) -> List[PartialRegex]:
    """Expansions of a Repeat-family operator (rule 4 / ablation enumeration)."""
    ints = tuple(ints)
    if config.use_symbolic_ints:
        resolved = tuple(value if value is not None else symints.fresh() for value in ints)
        return [POp(op, (child,), resolved)]
    # Explicit enumeration of the unknown integer arguments.
    candidates: List[tuple[int, ...]] = [()]
    for position, value in enumerate(ints):
        new_candidates: List[tuple[int, ...]] = []
        for prefix in candidates:
            if value is not None:
                new_candidates.append(prefix + (value,))
                continue
            for concrete in range(1, config.max_enum_int + 1):
                new_candidates.append(prefix + (concrete,))
        candidates = new_candidates
    results = []
    for values in candidates:
        if op == "RepeatRange" and values[0] > values[1]:
            continue
        results.append(POp(op, (child,), values))
    return results


def _hole_expansions(
    label: HoleLabel, config: SynthesisConfig, symints: SymIntFactory
) -> List[PartialRegex]:
    """Rules 1 and 2 of Figure 10."""
    results: List[PartialRegex] = []
    # Π1: fill the hole with one of the hint components.
    for component in label.components:
        results.append(POpen(component))
    if label.depth <= 1:
        return results

    child_hole = POpen(HoleLabel(label.components, label.depth - 1))
    free = lambda: POpen(FreeLabel(label.components, label.depth - 1))  # noqa: E731

    # Π2: an operator without integer arguments; one argument keeps the
    # constrained hole, the others become free positions.
    for op, arity in _F_OPERATORS:
        for position in range(arity):
            children = tuple(
                child_hole if index == position else free() for index in range(arity)
            )
            results.append(POp(op, children))

    # Π3: a Repeat-family operator applied to the constrained hole.
    for op, _ in _G_OPERATORS:
        results.extend(
            _int_op_expansions(op, POpen(HoleLabel(label.components, label.depth - 1)),
                               (None,) * dict(_G_OPERATORS)[op], config, symints)
        )
    return results


def _free_expansions(
    label: FreeLabel,
    config: SynthesisConfig,
    symints: SymIntFactory,
    literal_chars: str,
) -> List[PartialRegex]:
    """Expansions of a free (sibling) position: ``□^d(C ∪ components)``."""
    results: List[PartialRegex] = []
    for leaf in default_char_classes(literal_chars):
        results.append(PLeaf(leaf))
    for component in label.components:
        results.append(POpen(component))
    if label.depth <= 1:
        return results
    free_child = lambda: POpen(FreeLabel(label.components, label.depth - 1))  # noqa: E731
    for op, arity in _F_OPERATORS:
        results.append(POp(op, tuple(free_child() for _ in range(arity))))
    for op, num_ints in _G_OPERATORS:
        results.extend(
            _int_op_expansions(op, free_child(), (None,) * num_ints, config, symints)
        )
    return results
