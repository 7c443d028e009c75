"""Differential tests of the ⊤/⊥ absorption in partial-regex approximation.

``repro.synthesis.approximate`` folds ``⊤``/``⊥`` arguments while it builds
the Figure-11 approximations (``Concat(⊥, x) → ⊥``, ``Or(⊥, x) → x``,
``KleeneStar(⊤) → ⊤``, ...).  ``⊤`` is ``<any>*`` over the printable
alphabet, not Σ*, so only some identities are exact: ``StartsWith(⊤)``,
``Not(⊤)`` or ``Or(⊤, x)`` differ from their "obvious" folds on a subject
with a character outside that alphabet.  The oracle below is the plain
Figure-11 construction without any folding; every approximation and every
``infeasible`` verdict must agree with it on subjects that include such
characters.
"""

from hypothesis import given, settings, strategies as st

from repro.dsl import ast as r
from repro.sketch import ast as sast
from repro.synthesis import Examples, SynthesisConfig
from repro.synthesis.approximate import (
    BOTTOM,
    TOP,
    approximate_partial,
    approximate_sketch,
    infeasible,
)
from repro.synthesis.partial import FreeLabel, HoleLabel, PLeaf, POp, POpen, SymInt

_UNARY = dict(sast.UNARY_SKETCH_OPS)
_BINARY = dict(sast.BINARY_SKETCH_OPS)
_INT_OPS = {name: ctor for name, (ctor, _) in sast.INT_SKETCH_OPS.items()}


def _oracle(partial, hole_depth):
    """Figure 11 as written: no ⊤/⊥ folding, no memo."""
    if isinstance(partial, PLeaf):
        return partial.regex, partial.regex
    if isinstance(partial, POpen):
        label = partial.label
        if isinstance(label, HoleLabel):
            return approximate_sketch(sast.Hole(label.components), label.depth)
        if isinstance(label, FreeLabel):
            return TOP, BOTTOM
        return approximate_sketch(label, hole_depth)
    approximations = [_oracle(child, hole_depth) for child in partial.children]
    overs = [o for o, _ in approximations]
    unders = [u for _, u in approximations]
    if partial.op == "Not":
        return r.Not(unders[0]), r.Not(overs[0])
    if partial.op in _UNARY or partial.op in _BINARY:
        ctor = _UNARY.get(partial.op) or _BINARY[partial.op]
        return ctor(*overs), ctor(*unders)
    ctor = _INT_OPS[partial.op]
    if any(isinstance(value, SymInt) for value in partial.ints):
        return r.RepeatAtLeast(overs[0], 1), BOTTOM
    return ctor(overs[0], *partial.ints), ctor(unders[0], *partial.ints)


# ---------------------------------------------------------------------------
# Strategies: partials rich in ⊤/⊥ subtrees, subjects outside the alphabet
# ---------------------------------------------------------------------------

#: ``é`` and ``\n`` are outside the printable alphabet ``⊤`` ranges over.
_subjects = st.text(alphabet="a1.-é\n", max_size=4)

_LEAF_REGEXES = (TOP, BOTTOM, r.Epsilon(), r.NUM, r.LET, r.ANY, r.literal("."))

_components = st.lists(
    st.sampled_from(_LEAF_REGEXES).map(sast.ConcreteRegexSketch), max_size=2
).map(tuple)

_open_nodes = st.one_of(
    st.builds(FreeLabel, _components, st.integers(1, 2)).map(POpen),
    st.builds(HoleLabel, _components, st.integers(1, 2)).map(POpen),
    _components.map(lambda components: POpen(sast.Hole(components))),
)

_int_args = st.one_of(st.integers(1, 2), st.just(SymInt("k1")))
_range_args = st.one_of(
    st.tuples(st.integers(1, 2), st.integers(0, 1)).map(lambda p: (p[0], p[0] + p[1])),
    st.just((SymInt("k1"), SymInt("k2"))),
)


def _int_ops(children):
    return st.one_of(
        st.tuples(st.sampled_from(["Repeat", "RepeatAtLeast"]), children, _int_args).map(
            lambda triple: POp(triple[0], (triple[1],), (triple[2],))
        ),
        st.tuples(children, _range_args).map(
            lambda pair: POp("RepeatRange", (pair[0],), pair[1])
        ),
    )


_partials = st.recursive(
    st.one_of(st.sampled_from(_LEAF_REGEXES).map(PLeaf), _open_nodes),
    lambda children: st.one_of(
        st.tuples(st.sampled_from(sorted(_UNARY)), children).map(
            lambda pair: POp(pair[0], (pair[1],))
        ),
        st.tuples(st.sampled_from(sorted(_BINARY)), children, children).map(
            lambda triple: POp(triple[0], (triple[1], triple[2]))
        ),
        _int_ops(children),
    ),
    max_leaves=6,
)


@settings(max_examples=400, deadline=None)
@given(
    partial=_partials,
    hole_depth=st.integers(1, 2),
    subjects=st.lists(st.tuples(_subjects, st.booleans()), min_size=1, max_size=4),
)
def test_absorbed_approximations_agree_with_unabsorbed_figure_11(
    partial, hole_depth, subjects
):
    over, under = approximate_partial(partial, hole_depth)
    oracle_over, oracle_under = _oracle(partial, hole_depth)
    positive = [text for text, is_positive in subjects if is_positive]
    negative = [text for text, is_positive in subjects if not is_positive]
    examples = Examples(positive, negative)
    for text, _ in subjects:
        assert examples.matches(over, text) == examples.matches(oracle_over, text), (
            "over", text, over, oracle_over,
        )
        assert examples.matches(under, text) == examples.matches(oracle_under, text), (
            "under", text, under, oracle_under,
        )
    expected = not examples.accepts_all_positive(oracle_over) or not (
        examples.rejects_all_negative(oracle_under)
    )
    assert infeasible(partial, examples, SynthesisConfig(hole_depth=hole_depth)) is expected


def test_top_stays_unfolded_where_it_is_not_sigma_star():
    # Each of these would be a wrong fold over a subject outside the
    # printable alphabet, e.g. StartsWith(⊤) accepts "é" but ⊤ does not.
    free = POpen(FreeLabel((), 1))
    for op in ("StartsWith", "EndsWith", "Contains"):
        over, under = approximate_partial(POp(op, (free,)), 2)
        assert over is _UNARY[op](TOP) and under is BOTTOM
    over, under = approximate_partial(POp("Not", (free,)), 2)
    assert over is r.Not(BOTTOM) and under is r.Not(TOP)
    leaf = PLeaf(r.NUM)
    assert approximate_partial(POp("Or", (free, leaf)), 2) == (r.Or(TOP, r.NUM), r.NUM)
    assert approximate_partial(POp("And", (free, leaf)), 2) == (r.And(TOP, r.NUM), BOTTOM)


def test_exact_identities_fold():
    free = POpen(FreeLabel((), 1))
    assert approximate_partial(POp("Concat", (free, free)), 2) == (TOP, BOTTOM)
    assert approximate_partial(POp("KleeneStar", (free,)), 2) == (TOP, r.KleeneStar(BOTTOM))
    assert approximate_partial(POp("Repeat", (free,), (SymInt("k1"),)), 2) == (TOP, BOTTOM)
    assert approximate_partial(POp("Concat", (free, PLeaf(r.NUM))), 2) == (
        r.Concat(TOP, r.NUM),
        BOTTOM,
    )


def test_top_over_still_checks_positives_outside_the_alphabet():
    # The over-approximation ⊤ rejects a positive with a non-printable
    # character, so the partial is infeasible even though ⊤ "accepts all".
    free = POpen(FreeLabel((), 1))
    config = SynthesisConfig(hole_depth=2)
    assert infeasible(free, Examples(["a1"], ["é"]), config) is False
    assert infeasible(free, Examples(["é"], []), config) is True
