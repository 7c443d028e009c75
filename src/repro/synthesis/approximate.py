"""Over-/under-approximation of partial regexes and sketches (Figures 11–12).

Given a partial regex ``P`` the engine computes a pair of concrete regexes
``(o, u)`` such that every completion of ``P`` is contained in ``o`` and
contains ``u``.  A partial regex can then be pruned when some positive example
falls outside ``o`` or some negative example falls inside ``u`` — without ever
enumerating its completions (Theorem 4.4).
"""

from __future__ import annotations

from typing import Tuple

from repro.dsl import ast as rast
from repro.sketch import ast as sast
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.examples import Examples
from repro.synthesis.partial import (
    FreeLabel,
    HoleLabel,
    PartialRegex,
    PLeaf,
    POp,
    POpen,
    SymInt,
)

#: ``⊤`` — the regex accepting every string.
TOP = rast.KleeneStar(rast.ANY)
#: ``⊥`` — the regex accepting no string.
BOTTOM = rast.EmptySet()

_UNARY = dict(sast.UNARY_SKETCH_OPS)
_BINARY = dict(sast.BINARY_SKETCH_OPS)
_INT_OPS = {name: ctor for name, (ctor, _) in sast.INT_SKETCH_OPS.items()}


Approximation = Tuple[rast.Regex, rast.Regex]


# ---------------------------------------------------------------------------
# Sketch approximation (Figure 12)
# ---------------------------------------------------------------------------

def approximate_sketch(sketch: sast.Sketch, hole_depth: int = 3) -> Approximation:
    """Over-/under-approximation ``(o, u)`` of an h-sketch."""
    if isinstance(sketch, sast.ConcreteRegexSketch):
        return sketch.regex, sketch.regex                              # rule 7
    if isinstance(sketch, sast.OpSketch):
        approximations = [approximate_sketch(arg, hole_depth) for arg in sketch.args]
        if sketch.op == "Not":                                         # rule 5
            over, under = approximations[0]
            return rast.Not(under), rast.Not(over)
        ctor = _UNARY.get(sketch.op) or _BINARY[sketch.op]              # rule 4
        overs = [o for o, _ in approximations]
        unders = [u for _, u in approximations]
        return ctor(*overs), ctor(*unders)
    if isinstance(sketch, sast.IntOpSketch):
        over, under = approximate_sketch(sketch.arg, hole_depth)
        if all(value is not None for value in sketch.ints):
            ctor = _INT_OPS[sketch.op]
            return ctor(over, *sketch.ints), ctor(under, *sketch.ints)
        return rast.RepeatAtLeast(over, 1), BOTTOM                     # rule 6
    if isinstance(sketch, sast.Hole):
        return _approximate_hole(sketch.components, hole_depth)
    raise TypeError(f"unknown sketch node: {sketch!r}")


def _approximate_hole(components: tuple[sast.Sketch, ...], depth: int) -> Approximation:
    """Rules 1–3 of Figure 12 for constrained holes."""
    if not components:
        return TOP, BOTTOM
    if depth > 1:                                                       # rule 3
        return TOP, BOTTOM
    over, under = approximate_sketch(components[0], depth)              # rules 1-2
    for component in components[1:]:
        next_over, next_under = approximate_sketch(component, depth)
        over = rast.Or(over, next_over)
        under = rast.And(under, next_under)
    return over, under


# ---------------------------------------------------------------------------
# Partial-regex approximation (Figure 11)
# ---------------------------------------------------------------------------

class ApproxCacheStats:
    """Global hit/miss counters for the per-subtree approximation cache."""

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def snapshot(self) -> Tuple[int, int]:
        return self.hits, self.misses


APPROX_CACHE_STATS = ApproxCacheStats()

def approximate_partial(partial: PartialRegex, hole_depth: int = 3) -> Approximation:
    """Over-/under-approximation ``(o, u)`` of a partial regex (cached).

    The ``(over, under)`` pair is memoised *on* the interned node as its
    ``_approx`` attribute, a ``(hole_depth, (over, under))`` pair: an
    attribute read is an order of magnitude cheaper than a weak-dict lookup
    on this path, the entry's lifetime is identical to a weak-keyed one — it
    dies with the node — and a pair is a quarter the size of a dict.  One
    search uses one hole depth, so one slot suffices; a call with another
    depth recomputes and replaces it.  Because expansion rebuilds only the
    spine from the expanded node to the root (see
    :func:`repro.synthesis.partial.replace_node`), every off-spine subtree
    of a successor is the *same object* as in its parent and hits this memo
    — the approximation is incremental in the depth of the expanded node.
    Thread safety: the function is pure and the memo write is a single
    atomic attribute store, so a racing thread can at worst overwrite an
    equal entry (benign lost update, recomputed on next call).
    """
    cached = getattr(partial, "_approx", None)
    if cached is not None and cached[0] == hole_depth:
        APPROX_CACHE_STATS.hits += 1
        return cached[1]
    APPROX_CACHE_STATS.misses += 1
    result = _approximate_partial_uncached(partial, hole_depth)
    object.__setattr__(partial, "_approx", (hole_depth, result))
    return result


#: Operators whose language is empty when an argument's is (DSL integers
#: are positive, so this covers the whole Repeat family).
_BOTTOM_STRICT = frozenset({"Concat", "And", "StartsWith", "EndsWith", "Contains"} | set(_INT_OPS))
#: Operators under which ``⊤`` (every string over the printable alphabet) is
#: closed.  ``StartsWith``/``EndsWith``/``Contains``/``Not`` are absent: over
#: a subject with a character outside that alphabet they differ from ``⊤``.
_TOP_CLOSED = frozenset({"Concat", "Or", "And", "KleeneStar", "Optional"} | set(_INT_OPS))
_CTORS = {**_UNARY, **_BINARY, **_INT_OPS}


def _absorb(op: str, args: list, ints: tuple = ()) -> rast.Regex:
    """``op(*args, *ints)``, folding the ⊤/⊥ identities that hold over every alphabet.

    ``Or(⊤, x)`` and ``And(⊤, x)`` are not folded: ``⊤`` is not Σ*, so they
    are not ``⊤`` and ``x`` over a subject outside the printable alphabet.
    """
    if BOTTOM in args:
        if op in _BOTTOM_STRICT:
            return BOTTOM
        if op == "Or":
            return args[0] if args[1] is BOTTOM else args[1]
    elif op in _TOP_CLOSED and all(arg is TOP for arg in args):
        return TOP
    return _CTORS[op](*args, *ints)


def _approximate_partial_uncached(
    partial: PartialRegex, hole_depth: int
) -> Approximation:
    if isinstance(partial, PLeaf):
        return partial.regex, partial.regex
    if isinstance(partial, POpen):
        label = partial.label
        if isinstance(label, HoleLabel):
            return _approximate_hole(label.components, label.depth)
        if isinstance(label, FreeLabel):
            return TOP, BOTTOM
        return approximate_sketch(label, hole_depth)                    # rule 1
    if isinstance(partial, POp):
        op = partial.op
        approximations = [approximate_partial(child, hole_depth) for child in partial.children]
        if op == "Not":                                                 # rule 3
            over, under = approximations[0]
            return rast.Not(under), rast.Not(over)
        overs = [o for o, _ in approximations]
        unders = [u for _, u in approximations]
        if op not in _INT_OPS:                                          # rule 2
            return _absorb(op, overs), _absorb(op, unders)
        # Repeat family (rules 4-5).
        ints = partial.ints
        if any(isinstance(value, SymInt) for value in ints):            # rule 5
            return _absorb("RepeatAtLeast", overs, (1,)), BOTTOM
        return _absorb(op, overs, ints), _absorb(op, unders, ints)      # rule 4
    raise TypeError(f"unknown partial regex node: {partial!r}")


def infeasible(
    partial: PartialRegex,
    examples: Examples,
    config: SynthesisConfig,
) -> bool:
    """Approximation-based pruning check (``Infeasible`` in Figure 9, line 13).

    Returns True when the partial regex provably cannot be completed into a
    regex consistent with the examples.  When approximation pruning is
    disabled (the Regel-Enum ablation) this always returns False.  When the
    under-approximation is ``⊥`` it rejects every negative example, so they
    are not evaluated.  An over-approximation of ``⊤`` is still checked
    against the positives: it rejects one that leaves the printable alphabet.
    """
    if not config.use_approximation:
        return False
    over, under = approximate_partial(partial, config.hole_depth)
    if not examples.accepts_all_positive(over):
        return True
    return under is not BOTTOM and not examples.rejects_all_negative(under)
