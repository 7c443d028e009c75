"""Tests for regex structural utilities and simplification rewrites."""

from hypothesis import given, settings, strategies as st

from repro.dsl import (
    Concat,
    Epsilon,
    KleeneStar,
    LET,
    NUM,
    Not,
    Optional,
    Or,
    Repeat,
    RepeatRange,
    literal,
    matches,
    simplify,
)
from repro.dsl.simplify import (
    char_classes_used,
    depth,
    expressible_in_fidex,
    expressible_in_flashfill,
    operators_used,
    size,
)
from repro.dsl.ast import RepeatAtLeast


class TestStructuralMetrics:
    def test_size_and_depth(self):
        regex = Concat(Repeat(NUM, 3), Optional(LET))
        assert size(regex) == 5
        assert depth(regex) == 3

    def test_operators_used(self):
        regex = Concat(Repeat(NUM, 3), Optional(LET))
        assert operators_used(regex) == {"Concat", "Repeat", "Optional"}

    def test_char_classes_used(self):
        regex = Or(NUM, Concat(LET, literal("-")))
        assert char_classes_used(regex) == {NUM, LET, literal("-")}


class TestSimplify:
    def test_or_idempotent(self):
        assert simplify(Or(NUM, NUM)) == NUM

    def test_double_negation(self):
        assert simplify(Not(Not(NUM))) == NUM

    def test_nested_optional_and_star(self):
        assert simplify(Optional(Optional(NUM))) == Optional(NUM)
        assert simplify(KleeneStar(KleeneStar(NUM))) == KleeneStar(NUM)
        assert simplify(Optional(KleeneStar(NUM))) == KleeneStar(NUM)
        assert simplify(KleeneStar(Optional(NUM))) == KleeneStar(NUM)

    def test_repeat_one(self):
        assert simplify(Repeat(NUM, 1)) == NUM
        assert simplify(RepeatRange(NUM, 2, 2)) == Repeat(NUM, 2)

    def test_concat_epsilon(self):
        assert simplify(Concat(Epsilon(), NUM)) == NUM
        assert simplify(Concat(NUM, Epsilon())) == NUM

    @given(
        st.recursive(
            st.sampled_from([NUM, LET, literal(".")]),
            lambda c: st.one_of(
                st.builds(Optional, c),
                st.builds(KleeneStar, c),
                st.builds(Not, c),
                st.builds(Concat, c, c),
                st.builds(Or, c, c),
                st.builds(Repeat, c, st.integers(1, 2)),
            ),
            max_leaves=6,
        ),
        st.text(alphabet="a1.", max_size=4),
    )
    @settings(max_examples=120, deadline=None)
    def test_simplification_preserves_semantics(self, regex, subject):
        assert matches(simplify(regex), subject) == matches(regex, subject)


class TestDslCoverageFragments:
    def test_flashfill_fragment(self):
        assert expressible_in_flashfill(
            Concat(RepeatAtLeast(NUM, 1), RepeatAtLeast(LET, 1))
        )
        assert not expressible_in_flashfill(Concat(Repeat(NUM, 3), RepeatAtLeast(LET, 1)))
        assert not expressible_in_flashfill(Or(NUM, LET))

    def test_fidex_fragment(self):
        assert expressible_in_fidex(Concat(Repeat(NUM, 3), literal("-")))
        assert not expressible_in_fidex(Or(NUM, LET))
        assert not expressible_in_fidex(KleeneStar(Concat(NUM, LET)))
