"""Compositional grammar rules and their semantic functions (Appendix B.1).

Each rule maps a sequence of constituent categories to a target category and
a semantic function that builds the derivation's value.  Values are:

* DSL regexes for ``$PROGRAM`` (concrete building blocks),
* hierarchical sketches for ``$SKETCH``,
* integers for ``$INT``,
* marker strings for the ``$OP_*`` categories.

A semantic function may return ``None`` to signal that the rule does not
apply to the given values (e.g. a malformed integer range).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.dsl import ast as rast
from repro.sketch import ast as sast
from repro.sketch.ast import ConcreteRegexSketch, Hole, OpSketch


@dataclass(frozen=True)
class Rule:
    """One compositional rule ``target ← rhs`` with semantic function ``fn``."""

    name: str
    target: str
    rhs: tuple[str, ...]
    fn: Callable[..., object]


# ---------------------------------------------------------------------------
# Helpers for semantic functions
# ---------------------------------------------------------------------------

def _as_sketch(value: object) -> sast.Sketch:
    """Coerce a rule argument (regex or sketch) into a sketch."""
    if isinstance(value, sast.Sketch):
        return value
    if isinstance(value, rast.Regex):
        return ConcreteRegexSketch(value)
    raise TypeError(f"cannot treat {value!r} as a sketch")


def _hole(*values: object) -> Hole:
    components = []
    for value in values:
        if isinstance(value, Hole):
            components.extend(value.components)
        else:
            components.append(_as_sketch(value))
    # Drop duplicates while preserving order (redundant-sketch elimination).
    unique: list[sast.Sketch] = []
    for component in components:
        if component not in unique:
            unique.append(component)
    return Hole(tuple(unique))


def _binary_sketch(op: str, left: object, right: object) -> sast.Sketch:
    return OpSketch(op, (_as_sketch(left), _as_sketch(right)))


def _unary_sketch(op: str, arg: object) -> sast.Sketch:
    return OpSketch(op, (_as_sketch(arg),))


def _positive(*values: int) -> bool:
    return all(isinstance(v, int) and v >= 1 for v in values)


# ---------------------------------------------------------------------------
# Semantic functions (program level — concrete regexes)
# ---------------------------------------------------------------------------

def identity(value):  # $PROGRAM <- $CC | $CONST
    return value


def repeat_fn(count, program):  # "3 digits"
    if not _positive(count):
        return None
    return rast.Repeat(program, count)


def length_fn(program, _marker, count):  # "digits with length 8"
    if not _positive(count):
        return None
    return rast.Repeat(program, count)


def length_prefix_fn(_marker, count, program):  # "length of 8 characters"
    if not _positive(count):
        return None
    return rast.Repeat(program, count)


def atmax_fn(_marker, count, program):  # "at most 3 numbers"
    if not _positive(count):
        return None
    return rast.RepeatRange(program, 1, count)


def atmax_post_fn(count, program, _marker):  # "3 numbers at most"
    return atmax_fn(_marker, count, program)


def atleast_fn(_marker, count, program):  # "at least 2 letters"
    if not _positive(count):
        return None
    return rast.RepeatAtLeast(program, count)


def ormore_fn(count, _marker, program):  # "2 or more digits"
    if not _positive(count):
        return None
    return rast.RepeatAtLeast(program, count)


def int_range_fn(low, _marker, high, program):  # "2 to 5 digits"
    if not _positive(low, high) or low > high:
        return None
    return rast.RepeatRange(program, low, high)


def int_or_fn(low, _marker, high, program):  # "6 or 8 digits"
    if not _positive(low, high):
        return None
    if low > high:
        return None
    return rast.Or(rast.Repeat(program, low), rast.Repeat(program, high))


def oneplus_fn(_marker, program):  # "one or more digits"
    return rast.RepeatAtLeast(program, 1)


def kleene_fn(_marker, program):  # "any number of letters"
    return rast.KleeneStar(program)


def only_fn(_marker, program):  # "only digits"
    return rast.RepeatAtLeast(program, 1)


def optional_fn(_marker, program):  # "an optional sign"
    return rast.Optional(program)


def optional_post_fn(program, _marker):
    return rast.Optional(program)


def decimal_fn(_marker):  # "a decimal number"
    return rast.Concat(
        rast.RepeatAtLeast(rast.NUM, 1),
        rast.Optional(rast.Concat(rast.literal("."), rast.RepeatAtLeast(rast.NUM, 1))),
    )


def concat_programs_fn(left, _marker, right):
    return rast.Concat(left, right)


def follow_programs_fn(left, _marker, right):
    return rast.Concat(right, left)


def or_programs_fn(left, _marker, right):
    return rast.Or(left, right)


# ---------------------------------------------------------------------------
# Semantic functions (sketch level)
# ---------------------------------------------------------------------------

def sketch_fn(*programs):  # a group of building blocks -> constrained hole
    return _hole(*programs)


def concat_sketch_fn(left, _marker, right):
    return _binary_sketch("Concat", left, right)


def follow_sketch_fn(left, _marker, right):
    return _binary_sketch("Concat", right, left)


def or_sketch_fn(left, _marker, right):
    return _binary_sketch("Or", left, right)


def and_sketch_fn(left, _marker, right):
    return _binary_sketch("And", left, right)


def startwith_fn(_marker, arg):
    return _unary_sketch("StartsWith", arg)


def startwith_post_fn(arg, _marker):
    return _unary_sketch("StartsWith", arg)


def endwith_fn(_marker, arg):
    return _unary_sketch("EndsWith", arg)


def endwith_post_fn(arg, _marker):
    return _unary_sketch("EndsWith", arg)


def contain_fn(_marker, arg):
    return _unary_sketch("Contains", arg)


def notcontain_fn(_marker, arg):
    return OpSketch("Not", (_unary_sketch("Contains", arg),))


def not_fn(_marker, arg):
    return _unary_sketch("Not", arg)


def separated_by_fn(item, _marker, separator):  # "numbers separated by commas"
    item_sketch = _as_sketch(item)
    return OpSketch(
        "Concat",
        (item_sketch, _binary_sketch("Concat", separator, item_sketch)),
    )


def between_fn(separator, _marker, item):  # "a comma between the numbers"
    return separated_by_fn(item, _marker, separator)


# ---------------------------------------------------------------------------
# The grammar
# ---------------------------------------------------------------------------

GRAMMAR_RULES: list[Rule] = [
    # Program-level building blocks.
    Rule("prog_cc", "$PROGRAM", ("$CC",), identity),
    Rule("prog_const", "$PROGRAM", ("$CONST",), identity),
    Rule("prog_decimal", "$PROGRAM", ("$OP_DECIMAL",), decimal_fn),
    Rule("prog_repeat", "$PROGRAM", ("$INT", "$PROGRAM"), repeat_fn),
    Rule("prog_length", "$PROGRAM", ("$PROGRAM", "$OP_LENGTH", "$INT"), length_fn),
    Rule("prog_length_pre", "$PROGRAM", ("$OP_LENGTH", "$INT", "$PROGRAM"), length_prefix_fn),
    Rule("prog_atmax", "$PROGRAM", ("$OP_ATMAX", "$INT", "$PROGRAM"), atmax_fn),
    Rule("prog_atmax_post", "$PROGRAM", ("$INT", "$PROGRAM", "$OP_ATMAX"), atmax_post_fn),
    Rule("prog_atleast", "$PROGRAM", ("$OP_ATLEAST", "$INT", "$PROGRAM"), atleast_fn),
    Rule("prog_ormore", "$PROGRAM", ("$INT", "$OP_ORMORE", "$PROGRAM"), ormore_fn),
    Rule("prog_int_range", "$PROGRAM", ("$INT", "$OP_RANGE", "$INT", "$PROGRAM"), int_range_fn),
    Rule("prog_int_or", "$PROGRAM", ("$INT", "$OP_OR", "$INT", "$PROGRAM"), int_or_fn),
    Rule("prog_oneplus", "$PROGRAM", ("$OP_ONEPLUS", "$PROGRAM"), oneplus_fn),
    Rule("prog_kleene", "$PROGRAM", ("$OP_KLEENE", "$PROGRAM"), kleene_fn),
    Rule("prog_only", "$PROGRAM", ("$OP_ONLY", "$PROGRAM"), only_fn),
    Rule("prog_optional", "$PROGRAM", ("$OP_OPTIONAL", "$PROGRAM"), optional_fn),
    Rule("prog_optional_post", "$PROGRAM", ("$PROGRAM", "$OP_OPTIONAL"), optional_post_fn),
    Rule("prog_concat", "$PROGRAM", ("$PROGRAM", "$OP_CONCAT", "$PROGRAM"), concat_programs_fn),
    Rule("prog_follow", "$PROGRAM", ("$PROGRAM", "$OP_FOLLOW", "$PROGRAM"), follow_programs_fn),
    Rule("prog_or", "$PROGRAM", ("$PROGRAM", "$OP_OR", "$PROGRAM"), or_programs_fn),
    # Sketch construction: groups of programs become constrained holes.
    Rule("sketch_one", "$SKETCH", ("$PROGRAM",), sketch_fn),
    Rule("sketch_pair", "$SKETCH", ("$PROGRAM", "$PROGRAM"), sketch_fn),
    Rule("sketch_merge", "$SKETCH", ("$SKETCH", "$PROGRAM"), lambda s, p: _hole(s, p)
         if isinstance(s, Hole) else None),
    # Sketch-level composition.
    Rule("sk_concat", "$SKETCH", ("$SKETCH", "$OP_CONCAT", "$SKETCH"), concat_sketch_fn),
    Rule("sk_follow", "$SKETCH", ("$SKETCH", "$OP_FOLLOW", "$SKETCH"), follow_sketch_fn),
    Rule("sk_or", "$SKETCH", ("$SKETCH", "$OP_OR", "$SKETCH"), or_sketch_fn),
    Rule("sk_and", "$SKETCH", ("$SKETCH", "$OP_AND", "$SKETCH"), and_sketch_fn),
    Rule("sk_startwith", "$SKETCH", ("$OP_STARTWITH", "$SKETCH"), startwith_fn),
    Rule("sk_startwith_post", "$SKETCH", ("$SKETCH", "$OP_STARTWITH"), startwith_post_fn),
    Rule("sk_endwith", "$SKETCH", ("$OP_ENDWITH", "$SKETCH"), endwith_fn),
    Rule("sk_endwith_post", "$SKETCH", ("$SKETCH", "$OP_ENDWITH"), endwith_post_fn),
    Rule("sk_contain", "$SKETCH", ("$OP_CONTAIN", "$SKETCH"), contain_fn),
    Rule("sk_notcontain", "$SKETCH", ("$OP_NOTCONTAIN", "$SKETCH"), notcontain_fn),
    Rule("sk_not", "$SKETCH", ("$OP_NOT", "$SKETCH"), not_fn),
    Rule("sk_sep", "$SKETCH", ("$SKETCH", "$OP_SEP", "$SKETCH"), separated_by_fn),
    Rule("sk_between", "$SKETCH", ("$SKETCH", "$OP_BETWEEN", "$SKETCH"), between_fn),
    # Program-level containment (used by the DeepRegex-style concrete baseline).
    Rule("prog_startwith", "$PROGRAM", ("$OP_STARTWITH", "$PROGRAM"),
         lambda _m, p: rast.StartsWith(p)),
    Rule("prog_endwith", "$PROGRAM", ("$OP_ENDWITH", "$PROGRAM"),
         lambda _m, p: rast.EndsWith(p)),
    Rule("prog_contain", "$PROGRAM", ("$OP_CONTAIN", "$PROGRAM"),
         lambda _m, p: rast.Contains(p)),
    Rule("prog_notcontain", "$PROGRAM", ("$OP_NOTCONTAIN", "$PROGRAM"),
         lambda _m, p: rast.Not(rast.Contains(p))),
    Rule("prog_not", "$PROGRAM", ("$OP_NOT", "$PROGRAM"), lambda _m, p: rast.Not(p)),
    # Roots.
    Rule("root_sketch", "$ROOT", ("$SKETCH",), lambda s: _as_sketch(s)),
    Rule("root_program", "$ROOT", ("$PROGRAM",), lambda p: ConcreteRegexSketch(p)),
]
