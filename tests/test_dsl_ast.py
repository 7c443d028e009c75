"""Unit tests for the regex DSL AST (construction, equality, traversal)."""

import pytest

from repro.dsl import (
    ANY,
    And,
    CharClass,
    Concat,
    Contains,
    EmptySet,
    Epsilon,
    KleeneStar,
    NUM,
    Not,
    Optional,
    Or,
    Repeat,
    RepeatAtLeast,
    RepeatRange,
    StartsWith,
    concat_all,
    literal,
    or_all,
)
from repro.dsl.ast import string_literal


class TestConstruction:
    def test_charclass_literal(self):
        dot = literal(".")
        assert isinstance(dot, CharClass)
        assert dot.kind == "."

    def test_charclass_literal_rejects_multichar(self):
        with pytest.raises(ValueError):
            literal("ab")

    def test_repeat_requires_positive_count(self):
        with pytest.raises(ValueError):
            Repeat(NUM, 0)
        with pytest.raises(ValueError):
            RepeatAtLeast(NUM, -1)

    def test_repeat_rejects_bool_count(self):
        with pytest.raises(ValueError):
            Repeat(NUM, True)

    def test_bool_count_rejected_while_equal_int_node_is_interned(self):
        # True == 1 and hash(True) == hash(1): the intern table's fast probe
        # must not hand back the live Repeat(<num>,1) for Repeat(<num>,True).
        one = Repeat(NUM, 1)
        with pytest.raises(ValueError):
            Repeat(NUM, True)
        assert one.count == 1

    def test_repeat_range_ordering(self):
        with pytest.raises(ValueError):
            RepeatRange(NUM, 3, 1)
        r = RepeatRange(NUM, 1, 3)
        assert (r.low, r.high) == (1, 3)


class TestEqualityAndHashing:
    def test_structural_equality(self):
        a = Concat(NUM, Optional(literal(".")))
        b = Concat(NUM, Optional(literal(".")))
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_across_operators(self):
        assert Or(NUM, ANY) != And(NUM, ANY)
        assert Repeat(NUM, 2) != Repeat(NUM, 3)

    def test_usable_in_sets(self):
        regexes = {Repeat(NUM, 2), Repeat(NUM, 2), Repeat(NUM, 3)}
        assert len(regexes) == 2


class TestTraversal:
    def test_children(self):
        node = Concat(NUM, Or(ANY, Epsilon()))
        assert node.children() == (NUM, Or(ANY, Epsilon()))
        assert Epsilon().children() == ()

    def test_walk_preorder(self):
        node = Concat(NUM, Not(ANY))
        walked = list(node.walk())
        assert walked[0] is node
        assert NUM in walked
        assert Not(ANY) in walked
        assert len(walked) == 4

    def test_walk_counts_repeated_structure(self):
        node = Or(NUM, NUM)
        assert len(list(node.walk())) == 3


class TestHelpers:
    def test_concat_all_empty(self):
        assert concat_all([]) == Epsilon()

    def test_concat_all_single(self):
        assert concat_all([NUM]) == NUM

    def test_concat_all_many_right_associated(self):
        result = concat_all([NUM, ANY, NUM])
        assert result == Concat(NUM, Concat(ANY, NUM))

    def test_or_all_empty(self):
        assert or_all([]) == EmptySet()

    def test_or_all_many(self):
        assert or_all([NUM, ANY]) == Or(NUM, ANY)

    def test_string_literal(self):
        regex = string_literal("ab")
        assert regex == Concat(literal("a"), literal("b"))
        assert string_literal("") == Epsilon()

    def test_containment_constructors(self):
        assert StartsWith(NUM).children() == (NUM,)
        assert Contains(KleeneStar(NUM)).children() == (KleeneStar(NUM),)
