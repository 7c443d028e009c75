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

The rules depend only on the node's label: :func:`label_expansions` derives
them once, and :func:`instantiate` names a template's symbolic integers each
time one is built.
"""

from __future__ import annotations

from itertools import count
from typing import Iterable, List, NamedTuple, Union

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
    partial_size,
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
    return leaves


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
    return [
        replace_node(partial, node, instantiate(subtree, symints))
        for _, subtree in label_expansions(node.label, config, literal_chars)
    ]


# ---------------------------------------------------------------------------
# Label-level expansion
# ---------------------------------------------------------------------------

class SymbolicTemplate(NamedTuple):
    """A Repeat-family subtree whose unknown integers (``None``) are named
    by :func:`instantiate`, afresh every time it is built."""

    op: str
    child: PartialRegex
    ints: tuple[int | None, ...]


Expansion = Union[PartialRegex, SymbolicTemplate]


def instantiate(subtree: Expansion, symints: SymIntFactory) -> PartialRegex:
    """The subtree of an expansion, with fresh names for a template's unknowns."""
    if not isinstance(subtree, SymbolicTemplate):
        return subtree
    ints = tuple(value if value is not None else symints.fresh() for value in subtree.ints)
    return POp(subtree.op, (subtree.child,), ints)


def label_expansions(
    label, config: SynthesisConfig, literal_chars: str = ""
) -> List[tuple[int, Expansion]]:
    """The one-level expansions of an open node's label, in generation order.

    Each comes with the :func:`~repro.synthesis.partial.partial_size` of the
    subtree it builds.  They depend on the label alone, so a caller may derive
    them once per open node and :func:`instantiate` them at every expansion.
    """
    return [
        (1 + partial_size(subtree.child) if isinstance(subtree, SymbolicTemplate)
         else partial_size(subtree), subtree)
        for subtree in _expansions_of_label(label, config, literal_chars)
    ]


def _expansions_of_label(label, config: SynthesisConfig, literal_chars: str) -> List[Expansion]:
    if isinstance(label, sast.ConcreteRegexSketch):
        return [PLeaf(label.regex)]
    if isinstance(label, sast.OpSketch):
        return [POp(label.op, tuple(POpen(arg) for arg in label.args))]
    if isinstance(label, sast.IntOpSketch):
        return _int_op_expansions(label.op, POpen(label.arg), label.ints, config)
    if isinstance(label, sast.Hole):
        label = HoleLabel(label.components, config.hole_depth)
    if isinstance(label, HoleLabel) and not label.components:
        # An unconstrained hole (the Regel-PBE starting point) has no hint to
        # place, so it behaves exactly like a free position.
        label = FreeLabel((), label.depth)
    if isinstance(label, HoleLabel):
        return _hole_expansions(label, config)
    if isinstance(label, FreeLabel):
        return _free_expansions(label, config, literal_chars)
    raise TypeError(f"unknown open-node label: {label!r}")


def _int_op_expansions(
    op: str,
    child: PartialRegex,
    ints: Iterable[int | None],
    config: SynthesisConfig,
) -> List[Expansion]:
    """Expansions of a Repeat-family operator (rule 4 / ablation enumeration)."""
    ints = tuple(ints)
    if config.use_symbolic_ints:
        return [SymbolicTemplate(op, child, ints) if None in ints else POp(op, (child,), ints)]
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
    results: List[Expansion] = []
    for values in candidates:
        if op == "RepeatRange" and values[0] > values[1]:
            continue
        results.append(POp(op, (child,), values))
    return results


def _hole_expansions(label: HoleLabel, config: SynthesisConfig) -> List[Expansion]:
    """Rules 1 and 2 of Figure 10."""
    results: List[Expansion] = []
    # Π1: fill the hole with one of the hint components.
    for component in label.components:
        results.append(POpen(component))
    if label.depth <= 1:
        return results

    child_hole = POpen(HoleLabel(label.components, label.depth - 1))
    free = POpen(FreeLabel(label.components, label.depth - 1))

    # Π2: an operator without integer arguments; one argument keeps the
    # constrained hole, the others become free positions.
    for op, arity in _F_OPERATORS:
        for position in range(arity):
            children = tuple(
                child_hole if index == position else free for index in range(arity)
            )
            results.append(POp(op, children))

    # Π3: a Repeat-family operator applied to the constrained hole.
    for op, num_ints in _G_OPERATORS:
        results.extend(_int_op_expansions(op, child_hole, (None,) * num_ints, config))
    return results


def _free_expansions(
    label: FreeLabel, config: SynthesisConfig, literal_chars: str
) -> List[Expansion]:
    """Expansions of a free (sibling) position: ``□^d(C ∪ components)``."""
    results: List[Expansion] = []
    for leaf in default_char_classes(literal_chars):
        results.append(PLeaf(leaf))
    for component in label.components:
        results.append(POpen(component))
    if label.depth <= 1:
        return results
    free_child = POpen(FreeLabel(label.components, label.depth - 1))
    for op, arity in _F_OPERATORS:
        results.append(POp(op, (free_child,) * arity))
    for op, num_ints in _G_OPERATORS:
        results.extend(_int_op_expansions(op, free_child, (None,) * num_ints, config))
    return results
