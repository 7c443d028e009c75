"""Partial regexes — the search states of the PBE engine (Definition 4.1).

A partial regex is a tree whose nodes are labelled with

* a DSL operator applied to child partial regexes (:class:`POp`), whose
  integer arguments may be concrete integers or symbolic integers
  (:class:`SymInt`),
* a concrete regex (:class:`PLeaf`), or
* an *open node* (:class:`POpen`) labelled with an h-sketch or with one of the
  two internal hole labels produced by expansion (:class:`HoleLabel` for
  constrained holes, :class:`FreeLabel` for the ``□^{d-1}(C ∪ {S..})``
  sibling positions of Figure 10, rule 2).

Following the paper, a partial regex is *concrete* when every label is a DSL
construct with concrete integers, and *symbolic* when it has no open nodes but
still contains symbolic integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from repro.dsl import ast as rast
from repro.dsl.intern import InternedMeta, freeze_interned
from repro.dsl.simplify import size as _regex_size
from repro.sketch import ast as sast


@dataclass(frozen=True)
class SymInt:
    """A symbolic integer ``κ`` standing for an unknown positive constant."""

    name: str


@dataclass(frozen=True)
class HoleLabel:
    """A constrained hole ``□^depth{components}`` awaiting expansion."""

    components: tuple[sast.Sketch, ...]
    depth: int


@dataclass(frozen=True)
class FreeLabel:
    """An unconstrained sibling position: ``□^depth(C ∪ components)``."""

    components: tuple[sast.Sketch, ...]
    depth: int


Label = Union[sast.Sketch, HoleLabel, FreeLabel]


class PartialRegex(metaclass=InternedMeta):
    """Base class of partial-regex nodes.

    Like DSL regexes, partial regexes are hash-consed: structurally equal
    partials are the same object, so worklist dedup is a set-of-objects test
    and per-subtree caches (sizes, approximations) are shared across the
    whole search.  One consequence: the *same* open node object can occur at
    several positions of one partial regex (e.g. the two free sibling
    positions of a ``Concat`` expansion), which is why replacement below is
    positional (leftmost occurrence) rather than replace-all-by-identity.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return to_debug_string(self)


@dataclass(frozen=True, repr=False)
class PLeaf(PartialRegex):
    """A concrete regex leaf (may itself be a composite regex)."""

    regex: rast.Regex


@dataclass(frozen=True, repr=False)
class POpen(PartialRegex):
    """An open node labelled with an h-sketch or hole label."""

    label: Label


@dataclass(frozen=True, repr=False)
class POp(PartialRegex):
    """A DSL operator applied to child partial regexes."""

    op: str
    children: tuple[PartialRegex, ...]
    ints: tuple[Union[int, SymInt], ...] = ()

    def __init__(self, op, children, ints=()):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "children", tuple(children))
        object.__setattr__(self, "ints", tuple(ints))


freeze_interned(PLeaf, POpen, POp)


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

def walk(partial: PartialRegex) -> Iterator[PartialRegex]:
    """Pre-order traversal of a partial regex."""
    yield partial
    if isinstance(partial, POp):
        for child in partial.children:
            yield from walk(child)


def open_nodes(partial: PartialRegex) -> tuple[POpen, ...]:
    """All open nodes in left-to-right order (memoised on the node)."""
    cached = getattr(partial, "_open", None)
    if cached is None:
        cached = tuple(node for node in walk(partial) if isinstance(node, POpen))
        object.__setattr__(partial, "_open", cached)
    return cached


def symints_of(partial: PartialRegex) -> tuple[SymInt, ...]:
    """All symbolic integers in left-to-right order (memoised, no duplicates)."""
    cached = getattr(partial, "_symints", None)
    if cached is None:
        seen: dict[str, SymInt] = {}
        for node in walk(partial):
            if isinstance(node, POp):
                for value in node.ints:
                    if isinstance(value, SymInt) and value.name not in seen:
                        seen[value.name] = value
        cached = tuple(seen.values())
        object.__setattr__(partial, "_symints", cached)
    return cached


def is_concrete(partial: PartialRegex) -> bool:
    """No open nodes and no symbolic integers."""
    return not open_nodes(partial) and not symints_of(partial)


def is_symbolic(partial: PartialRegex) -> bool:
    """No open nodes, but at least one symbolic integer."""
    return not open_nodes(partial) and bool(symints_of(partial))


def partial_size(partial: PartialRegex) -> int:
    """Number of nodes (used by the search priority).

    Memoised on the interned node itself (an on-node stamp, like the
    approximation memo): the write is a single atomic attribute store of a value every racing thread computes
    identically, and the entry dies with the node.
    """
    cached = getattr(partial, "_size", None)
    if cached is not None:
        return cached
    if isinstance(partial, PLeaf):
        result = _regex_size(partial.regex)
    elif isinstance(partial, POpen):
        result = 1
    elif isinstance(partial, POp):
        result = 1 + sum(partial_size(child) for child in partial.children)
    else:
        raise TypeError(f"unknown partial regex node: {partial!r}")
    object.__setattr__(partial, "_size", result)
    return result


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------

_UNARY = dict(sast.UNARY_SKETCH_OPS)
_BINARY = dict(sast.BINARY_SKETCH_OPS)
_INT_OPS = {name: ctor for name, (ctor, _) in sast.INT_SKETCH_OPS.items()}


def to_regex(partial: PartialRegex) -> rast.Regex:
    """Convert a concrete partial regex into a DSL regex.

    Raises ``ValueError`` if the partial regex still has open nodes or
    symbolic integers.
    """
    if isinstance(partial, PLeaf):
        return partial.regex
    if isinstance(partial, POpen):
        raise ValueError("partial regex still has open nodes")
    if isinstance(partial, POp):
        children = [to_regex(child) for child in partial.children]
        ints = []
        for value in partial.ints:
            if isinstance(value, SymInt):
                raise ValueError("partial regex still has symbolic integers")
            ints.append(value)
        ctor = _UNARY.get(partial.op) or _BINARY.get(partial.op) or _INT_OPS.get(partial.op)
        if ctor is None:
            raise ValueError(f"unknown operator {partial.op!r}")
        return ctor(*children, *ints)
    raise TypeError(f"unknown partial regex node: {partial!r}")


def substitute_symint(partial: PartialRegex, name: str, value: int) -> PartialRegex:
    """Replace one symbolic integer with a concrete value everywhere."""
    if isinstance(partial, (PLeaf, POpen)):
        return partial
    if isinstance(partial, POp):
        new_children = tuple(substitute_symint(child, name, value) for child in partial.children)
        new_ints = tuple(
            value if isinstance(i, SymInt) and i.name == name else i for i in partial.ints
        )
        if new_children == partial.children and new_ints == partial.ints:
            return partial
        return POp(partial.op, new_children, new_ints)
    raise TypeError(f"unknown partial regex node: {partial!r}")


def replace_node(partial: PartialRegex, target: POpen, replacement: PartialRegex) -> PartialRegex:
    """Replace the leftmost (pre-order first) occurrence of ``target``.

    With hash-consing, structurally equal open nodes are the same object and
    may occur at several positions; replacing exactly one position is what
    expansion requires (the engine always expands the leftmost open node).
    Only the spine from the replaced position to the root is rebuilt — all
    sibling subtrees are shared with the input, which is what makes the
    incremental approximation cache effective.
    """
    replaced, result = _replace_first(partial, target, replacement)
    return result


def _replace_first(
    partial: PartialRegex, target: POpen, replacement: PartialRegex
) -> tuple[bool, PartialRegex]:
    if partial is target:
        return True, replacement
    if isinstance(partial, POp):
        for index, child in enumerate(partial.children):
            replaced, new_child = _replace_first(child, target, replacement)
            if replaced:
                children = (
                    partial.children[:index]
                    + (new_child,)
                    + partial.children[index + 1:]
                )
                return True, POp(partial.op, children, partial.ints)
    return False, partial


def to_debug_string(partial: PartialRegex) -> str:
    """Readable rendering of a partial regex (used in logs and __repr__)."""
    from repro.dsl.printer import to_dsl_string
    from repro.sketch.printer import sketch_to_string

    if isinstance(partial, PLeaf):
        return to_dsl_string(partial.regex)
    if isinstance(partial, POpen):
        label = partial.label
        if isinstance(label, HoleLabel):
            inner = ",".join(sketch_to_string(c) for c in label.components)
            return f"Hole[{label.depth}]{{{inner}}}"
        if isinstance(label, FreeLabel):
            return f"Free[{label.depth}]"
        return f"Open[{sketch_to_string(label)}]"
    if isinstance(partial, POp):
        parts = [to_debug_string(child) for child in partial.children]
        parts.extend(v.name if isinstance(v, SymInt) else str(v) for v in partial.ints)
        return f"{partial.op}({','.join(parts)})"
    raise TypeError(f"unknown partial regex node: {partial!r}")
