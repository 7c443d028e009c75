"""Unit and property tests for the automaton substrate."""

import random

from hypothesis import given, settings, strategies as st

from repro.dsl import (
    ANY,
    And,
    Concat,
    Contains,
    Epsilon,
    KleeneStar,
    LET,
    NUM,
    Not,
    Optional,
    Or,
    Repeat,
    RepeatAtLeast,
    RepeatRange,
    StartsWith,
    EndsWith,
    literal,
    matches,
)
from repro.automata import (
    alphabet_for,
    compile_regex,
    difference_witness,
    distinguishing_examples,
    enumerate_language,
    language_nonempty,
    regex_equivalent,
    regex_included,
    sample_negative,
    sample_positive,
)
from repro.automata.nfa import NFA


class TestAlphabet:
    def test_partition_covers_alphabet(self):
        alphabet = alphabet_for(NUM, LET)
        total = sum(len(block) for block in alphabet.blocks)
        assert total == len(set("".join("".join(b) for b in alphabet.blocks)))
        assert alphabet.symbol_of("5") is not None
        assert alphabet.symbol_of("5") != alphabet.symbol_of("x")

    def test_minterms_group_indistinguishable_chars(self):
        alphabet = alphabet_for(NUM)
        assert alphabet.symbol_of("3") == alphabet.symbol_of("7")
        assert alphabet.symbol_of("a") == alphabet.symbol_of("b")

    def test_extra_chars_refine(self):
        alphabet = alphabet_for(NUM, extra_chars="a")
        assert alphabet.symbol_of("a") != alphabet.symbol_of("b")

    def test_encode_unknown_char(self):
        alphabet = alphabet_for(NUM)
        assert alphabet.encode("ab\x00") is None

    def test_representative_is_member(self):
        alphabet = alphabet_for(NUM, literal("."))
        for symbol in alphabet.symbols():
            assert alphabet.representative(symbol) in alphabet.blocks[symbol]


class TestNFA:
    def test_manual_nfa_accepts(self):
        nfa = NFA(2)
        s1 = nfa.new_state()
        nfa.add_transition(nfa.start, 0, s1)
        nfa.add_transition(s1, 1, s1)
        nfa.add_accepting(s1)
        assert nfa.accepts_symbols([0])
        assert nfa.accepts_symbols([0, 1, 1])
        assert not nfa.accepts_symbols([1])
        dfa = nfa.determinize()
        assert dfa.accepts_symbols([0, 1])
        assert not dfa.accepts_symbols([])


class TestCompiledRegex:
    def test_membership_simple(self):
        compiled = compile_regex(RepeatAtLeast(NUM, 2))
        assert compiled.accepts("12")
        assert compiled.accepts("123456")
        assert not compiled.accepts("1")
        assert not compiled.accepts("1a")

    def test_not_and(self):
        compiled = compile_regex(And(RepeatAtLeast(ANY, 1), Not(Contains(NUM))))
        assert compiled.accepts("abc-")
        assert not compiled.accepts("ab1")
        assert not compiled.accepts("")

    def test_optional_over_reenterable_fragment(self):
        # Not(StartsWith(Epsilon())) is the empty language; its embedded
        # complement DFA can return to its entry state after consuming
        # input.  Optional's empty-string bypass must use fresh states, or
        # "a" leaks out through the bypass.
        compiled = compile_regex(Optional(Not(StartsWith(Epsilon()))))
        assert compiled.accepts("")
        assert not compiled.accepts("a")

    def test_empty_language_detection(self):
        compiled = compile_regex(And(NUM, LET))
        assert compiled.is_empty()
        assert not language_nonempty(And(NUM, LET))
        assert language_nonempty(Or(NUM, LET))

    def test_shortest_example(self):
        compiled = compile_regex(Concat(Repeat(NUM, 2), literal("-")))
        example = compiled.shortest_example()
        assert example is not None
        assert len(example) == 3
        assert matches(Concat(Repeat(NUM, 2), literal("-")), example)

    def test_motivating_example_language(self):
        regex = Concat(
            RepeatRange(NUM, 1, 15),
            Optional(Concat(literal("."), RepeatRange(NUM, 1, 3))),
        )
        compiled = compile_regex(regex)
        assert compiled.accepts("123456789.123")
        assert compiled.accepts("123456789123456")
        assert not compiled.accepts("1234567891234567")
        assert not compiled.accepts(".1234")


class TestEquivalence:
    def test_optional_desugaring(self):
        # Optional(r) == Or(eps, r);   KleeneStar(r) == Optional(RepeatAtLeast(r,1))
        assert regex_equivalent(Optional(NUM), Or(NUM, Optional(And(NUM, LET))))
        assert regex_equivalent(KleeneStar(NUM), Optional(RepeatAtLeast(NUM, 1)))

    def test_repeat_range_unrolling(self):
        assert regex_equivalent(
            RepeatRange(NUM, 1, 2), Or(Repeat(NUM, 1), Repeat(NUM, 2))
        )

    def test_non_equivalent(self):
        assert not regex_equivalent(RepeatAtLeast(NUM, 1), RepeatAtLeast(NUM, 2))

    def test_inclusion(self):
        assert regex_included(Repeat(NUM, 3), RepeatAtLeast(NUM, 1))
        assert not regex_included(RepeatAtLeast(NUM, 1), Repeat(NUM, 3))

    def test_difference_witness(self):
        witness = difference_witness(RepeatAtLeast(NUM, 1), RepeatAtLeast(NUM, 2))
        assert witness is not None
        assert len(witness) == 1
        assert witness.isdigit()
        assert difference_witness(Repeat(NUM, 2), RepeatAtLeast(NUM, 1)) is None

    def test_containment_operators_equivalence(self):
        assert regex_equivalent(
            Contains(NUM), Concat(KleeneStar(ANY), Concat(NUM, KleeneStar(ANY)))
        )
        assert regex_equivalent(StartsWith(NUM), Concat(NUM, KleeneStar(ANY)))
        assert regex_equivalent(EndsWith(NUM), Concat(KleeneStar(ANY), NUM))


class TestSampling:
    def test_enumerate_language(self):
        strings = enumerate_language(RepeatRange(literal("a"), 1, 3), max_length=4)
        assert strings == ["a", "aa", "aaa"]

    def test_sample_positive_all_match(self):
        regex = Concat(RepeatRange(NUM, 1, 4), Optional(Concat(literal("."), NUM)))
        samples = sample_positive(regex, 6, random.Random(7))
        assert samples
        assert all(matches(regex, s) for s in samples)

    def test_sample_negative_all_reject(self):
        regex = Concat(RepeatRange(NUM, 1, 4), Optional(Concat(literal("."), NUM)))
        positives = sample_positive(regex, 5, random.Random(7))
        negatives = sample_negative(regex, 6, random.Random(8), positives=positives)
        assert negatives
        assert all(not matches(regex, s) for s in negatives)

    def test_distinguishing_examples_disagree(self):
        truth = RepeatRange(NUM, 1, 3)
        candidate = RepeatAtLeast(NUM, 1)
        pairs = distinguishing_examples(truth, candidate)
        assert pairs
        for text, should_match in pairs:
            assert matches(truth, text) == should_match
            assert matches(candidate, text) != should_match


# ---------------------------------------------------------------------------
# Property: automaton membership agrees with the direct DSL semantics
# ---------------------------------------------------------------------------

_LEAVES = st.sampled_from([NUM, LET, literal("."), literal("a")])

_REGEXES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.builds(Optional, children),
        st.builds(KleeneStar, children),
        st.builds(Not, children),
        st.builds(Contains, children),
        st.builds(Concat, children, children),
        st.builds(Or, children, children),
        st.builds(And, children, children),
        st.builds(Repeat, children, st.integers(1, 3)),
        st.builds(RepeatRange, children, st.integers(1, 2), st.integers(2, 3)),
    ),
    max_leaves=6,
)


class TestAgreementWithSemantics:
    @given(_REGEXES, st.text(alphabet="a1.b", max_size=5))
    @settings(max_examples=120, deadline=None)
    def test_dfa_matches_iff_semantics_matches(self, regex, subject):
        compiled = compile_regex(regex, extra_chars=subject)
        assert compiled.accepts(subject) == matches(regex, subject)

    @given(_REGEXES)
    @settings(max_examples=60, deadline=None)
    def test_shortest_example_is_accepted(self, regex):
        compiled = compile_regex(regex)
        example = compiled.shortest_example()
        if example is not None:
            assert matches(regex, example)
        else:
            assert compiled.is_empty()
