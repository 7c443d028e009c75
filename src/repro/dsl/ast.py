"""Abstract syntax tree of the regex DSL (Figure 5 of the paper).

All nodes are immutable, hashable, and **hash-consed**: constructing a node
whose field values equal an existing node's returns that existing (canonical)
object, so structural equality coincides with identity (see
:mod:`repro.dsl.intern`).  This is what lets the evaluation layer memoise
per ``(node, subject)`` and get cache hits across candidate regexes.
Constructors perform light validation (e.g. the ``Repeat`` family requires
positive integer arguments, as the paper mandates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.dsl.charclass import CharClassKind, class_display, literal_kind
from repro.dsl.intern import InternedMeta, freeze_interned


class Regex(metaclass=InternedMeta):
    """Base class for every node of the regex DSL."""

    __slots__ = ()

    def children(self) -> tuple["Regex", ...]:
        """Return the regex sub-terms of this node (integer arguments excluded)."""
        return ()

    def walk(self) -> Iterator["Regex"]:
        """Yield this node and all descendants in pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    # The concrete string form is defined in repro.dsl.printer; __repr__
    # delegates there so debugging output matches the paper's notation.
    def __repr__(self) -> str:
        from repro.dsl.printer import to_dsl_string

        return to_dsl_string(self)


@dataclass(frozen=True, repr=False)
class CharClass(Regex):
    """A character class: a predefined family or a single-character literal."""

    kind: "CharClassKind | str"

    def __post_init__(self) -> None:
        if not isinstance(self.kind, CharClassKind):
            object.__setattr__(self, "kind", literal_kind(self.kind))

    @property
    def display(self) -> str:
        return class_display(self.kind)


@dataclass(frozen=True, repr=False)
class Epsilon(Regex):
    """The regex matching exactly the empty string."""


@dataclass(frozen=True, repr=False)
class EmptySet(Regex):
    """The regex matching no string at all."""


@dataclass(frozen=True, repr=False)
class StartsWith(Regex):
    """Matches strings with a prefix matching the argument."""

    arg: Regex

    def children(self) -> tuple[Regex, ...]:
        return (self.arg,)


@dataclass(frozen=True, repr=False)
class EndsWith(Regex):
    """Matches strings with a suffix matching the argument."""

    arg: Regex

    def children(self) -> tuple[Regex, ...]:
        return (self.arg,)


@dataclass(frozen=True, repr=False)
class Contains(Regex):
    """Matches strings with a substring matching the argument."""

    arg: Regex

    def children(self) -> tuple[Regex, ...]:
        return (self.arg,)


@dataclass(frozen=True, repr=False)
class Not(Regex):
    """Matches strings that do *not* match the argument."""

    arg: Regex

    def children(self) -> tuple[Regex, ...]:
        return (self.arg,)


@dataclass(frozen=True, repr=False)
class Optional(Regex):
    """Matches the empty string or any string matching the argument."""

    arg: Regex

    def children(self) -> tuple[Regex, ...]:
        return (self.arg,)


@dataclass(frozen=True, repr=False)
class KleeneStar(Regex):
    """Matches zero or more repetitions of the argument."""

    arg: Regex

    def children(self) -> tuple[Regex, ...]:
        return (self.arg,)


@dataclass(frozen=True, repr=False)
class Concat(Regex):
    """Matches the concatenation of a string matching ``left`` and one matching ``right``."""

    left: Regex
    right: Regex

    def children(self) -> tuple[Regex, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, repr=False)
class Or(Regex):
    """Matches strings matched by either argument."""

    left: Regex
    right: Regex

    def children(self) -> tuple[Regex, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, repr=False)
class And(Regex):
    """Matches strings matched by both arguments."""

    left: Regex
    right: Regex

    def children(self) -> tuple[Regex, ...]:
        return (self.left, self.right)


def _check_positive(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} requires a positive integer argument, got {value!r}")


@dataclass(frozen=True, repr=False)
class Repeat(Regex):
    """Matches exactly ``count`` repetitions of the argument."""

    arg: Regex
    count: int

    def __post_init__(self) -> None:
        _check_positive("Repeat", self.count)

    def children(self) -> tuple[Regex, ...]:
        return (self.arg,)


@dataclass(frozen=True, repr=False)
class RepeatAtLeast(Regex):
    """Matches at least ``count`` repetitions of the argument."""

    arg: Regex
    count: int

    def __post_init__(self) -> None:
        _check_positive("RepeatAtLeast", self.count)

    def children(self) -> tuple[Regex, ...]:
        return (self.arg,)


@dataclass(frozen=True, repr=False)
class RepeatRange(Regex):
    """Matches between ``low`` and ``high`` repetitions of the argument."""

    arg: Regex
    low: int
    high: int

    def __post_init__(self) -> None:
        _check_positive("RepeatRange", self.low)
        _check_positive("RepeatRange", self.high)
        if self.low > self.high:
            raise ValueError(
                f"RepeatRange requires low <= high, got ({self.low}, {self.high})"
            )

    def children(self) -> tuple[Regex, ...]:
        return (self.arg,)


#: Every concrete node class, in definition order (used for interning setup
#: and by generic tooling such as the property-test regex generator).
NODE_CLASSES = (
    CharClass,
    Epsilon,
    EmptySet,
    StartsWith,
    EndsWith,
    Contains,
    Not,
    Optional,
    KleeneStar,
    Concat,
    Or,
    And,
    Repeat,
    RepeatAtLeast,
    RepeatRange,
)

# Replace the dataclass-generated structural __eq__/__hash__ with the O(1)
# interned versions.  This must happen before the first node is constructed
# (i.e. before the singletons below).
freeze_interned(*NODE_CLASSES)


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------

#: Predefined character-class singletons, matching the paper's notation.
NUM = CharClass(CharClassKind.NUM)
LET = CharClass(CharClassKind.LET)
CAP = CharClass(CharClassKind.CAP)
LOW = CharClass(CharClassKind.LOW)
ANY = CharClass(CharClassKind.ANY)
ALPHANUM = CharClass(CharClassKind.ALPHANUM)
HEX = CharClass(CharClassKind.HEX)
VOW = CharClass(CharClassKind.VOW)
SPEC = CharClass(CharClassKind.SPEC)


def literal(char: str) -> CharClass:
    """Build a single-character literal character class, e.g. ``literal('.')``."""
    return CharClass(char)


def string_literal(text: str) -> Regex:
    """Build a regex matching exactly ``text`` (a concatenation of literals)."""
    if not text:
        return Epsilon()
    return concat_all([literal(c) for c in text])


def concat_all(parts: Sequence[Regex] | Iterable[Regex]) -> Regex:
    """Right-associated concatenation of an arbitrary number of regexes."""
    parts = list(parts)
    if not parts:
        return Epsilon()
    result = parts[-1]
    for part in reversed(parts[:-1]):
        result = Concat(part, result)
    return result


def or_all(parts: Sequence[Regex] | Iterable[Regex]) -> Regex:
    """Right-associated union of an arbitrary number of regexes."""
    parts = list(parts)
    if not parts:
        return EmptySet()
    result = parts[-1]
    for part in reversed(parts[:-1]):
        result = Or(part, result)
    return result


#: Operators without integer arguments, keyed by arity (the ``F_n`` sets of the paper).
UNARY_OPERATORS = (StartsWith, EndsWith, Contains, Not, Optional, KleeneStar)
BINARY_OPERATORS = (Concat, Or, And)

#: Operators with integer arguments (the ``G_n`` sets of the paper), as
#: (constructor, number of integer arguments) pairs.
INT_OPERATORS = ((Repeat, 1), (RepeatAtLeast, 1), (RepeatRange, 2))
