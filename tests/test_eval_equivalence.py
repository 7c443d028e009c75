"""Differential property tests for the evaluation layer.

The match-set evaluator (:class:`repro.dsl.semantics.Matcher`), the original
recursive matcher (:class:`repro.dsl.semantics.RecursiveMatcher`), and the
automata backend (:func:`repro.automata.compile_regex`) implement the same
Figure-6 semantics three different ways; random regexes and subjects must
never tell them apart.  The three-way suite at the bottom is
hypothesis-driven and also compares *end-position masks*, not just
booleans, so an evaluator that is right about full matches but wrong about
inner spans still fails.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata import compile_regex
from repro.dsl import ast as r
from repro.dsl.semantics import Matcher, RecursiveMatcher

SEED = 20260730
SUBJECT_ALPHABET = "aA1. -b9,"

LEAVES = (
    r.NUM,
    r.LET,
    r.CAP,
    r.LOW,
    r.ANY,
    r.ALPHANUM,
    r.HEX,
    r.VOW,
    r.SPEC,
    r.literal("a"),
    r.literal("."),
    r.literal("-"),
    r.Epsilon(),
    r.EmptySet(),
)


def random_regex(rng: random.Random, depth: int) -> r.Regex:
    """A random DSL regex of height at most ``depth + 1``, covering every operator."""
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(LEAVES)
    op = rng.randrange(12)
    if op == 0:
        return r.StartsWith(random_regex(rng, depth - 1))
    if op == 1:
        return r.EndsWith(random_regex(rng, depth - 1))
    if op == 2:
        return r.Contains(random_regex(rng, depth - 1))
    if op == 3:
        return r.Not(random_regex(rng, depth - 1))
    if op == 4:
        return r.Optional(random_regex(rng, depth - 1))
    if op == 5:
        return r.KleeneStar(random_regex(rng, depth - 1))
    if op == 6:
        return r.Concat(random_regex(rng, depth - 1), random_regex(rng, depth - 1))
    if op == 7:
        return r.Or(random_regex(rng, depth - 1), random_regex(rng, depth - 1))
    if op == 8:
        return r.And(random_regex(rng, depth - 1), random_regex(rng, depth - 1))
    if op == 9:
        return r.Repeat(random_regex(rng, depth - 1), rng.randint(1, 4))
    if op == 10:
        return r.RepeatAtLeast(random_regex(rng, depth - 1), rng.randint(1, 3))
    low = rng.randint(1, 3)
    return r.RepeatRange(random_regex(rng, depth - 1), low, low + rng.randint(0, 3))


def random_subject(rng: random.Random, max_len: int = 9) -> str:
    return "".join(rng.choice(SUBJECT_ALPHABET) for _ in range(rng.randint(0, max_len)))


class TestMatchSetAgainstRecursive:
    def test_full_match_agreement(self):
        rng = random.Random(SEED)
        for _ in range(400):
            regex = random_regex(rng, 3)
            subject = random_subject(rng)
            expected = RecursiveMatcher(subject).matches(regex)
            assert Matcher(subject).matches(regex) == expected, (regex, subject)

    def test_span_agreement(self):
        rng = random.Random(SEED + 1)
        for _ in range(150):
            regex = random_regex(rng, 3)
            subject = random_subject(rng)
            matcher = Matcher(subject)
            oracle = RecursiveMatcher(subject)
            n = len(subject)
            for _ in range(4):
                i = rng.randint(0, n)
                j = rng.randint(i, n)
                assert matcher.matches_span(regex, i, j) == oracle._eval(regex, i, j), (
                    regex,
                    subject,
                    i,
                    j,
                )

    def test_shared_matcher_agrees_across_many_regexes(self):
        """One Matcher instance (warm caches) must behave like fresh oracles."""
        rng = random.Random(SEED + 2)
        subject = "aA1. -b9,ab"
        matcher = Matcher(subject)
        for _ in range(200):
            regex = random_regex(rng, 3)
            assert matcher.matches(regex) == RecursiveMatcher(subject).matches(regex), (
                regex,
                subject,
            )


class TestMatchSetAgainstAutomata:
    def test_full_match_agreement(self):
        rng = random.Random(SEED + 3)
        checked = 0
        while checked < 60:
            regex = random_regex(rng, 2)
            subject = random_subject(rng, max_len=6)
            compiled = compile_regex(regex, extra_chars=subject)
            assert Matcher(subject).matches(regex) == compiled.accepts(subject), (
                regex,
                subject,
            )
            checked += 1


class TestKnownTrickyCases:
    """Hand-picked shapes where span composition is easy to get wrong."""

    @pytest.mark.parametrize(
        "regex,subject,expected",
        [
            # Empty pieces inside exact repetition.
            (r.Repeat(r.Optional(r.NUM), 3), "12", True),
            (r.Repeat(r.Optional(r.NUM), 3), "1234", False),
            # Star over a regex that accepts the empty string must terminate
            # and behave like star over its non-empty part.
            (r.KleeneStar(r.Optional(r.NUM)), "123", True),
            (r.KleeneStar(r.Epsilon()), "", True),
            (r.KleeneStar(r.Epsilon()), "x", False),
            # Containment operators at span granularity.
            (r.Contains(r.Concat(r.NUM, r.LET)), "ab1c2", True),
            (r.Contains(r.Concat(r.NUM, r.LET)), "abc12", False),
            (r.StartsWith(r.Epsilon()), "anything", True),
            (r.EndsWith(r.EmptySet()), "a", False),
            # Negation interacts with the full-span mask.
            (r.Not(r.Epsilon()), "", False),
            (r.Not(r.Epsilon()), "a", True),
            (r.And(r.Not(r.NUM), r.ANY), "z", True),
            (r.And(r.Not(r.NUM), r.ANY), "5", False),
            # RepeatAtLeast must allow the star part to be empty.
            (r.RepeatAtLeast(r.Concat(r.LET, r.NUM), 2), "a1b2", True),
            (r.RepeatAtLeast(r.Concat(r.LET, r.NUM), 2), "a1", False),
            (r.RepeatRange(r.NUM, 2, 4), "12345", False),
        ],
    )
    def test_case(self, regex, subject, expected):
        assert Matcher(subject).matches(regex) == expected
        assert RecursiveMatcher(subject).matches(regex) == expected
        assert compile_regex(regex, extra_chars=subject).accepts(subject) == expected


# -- three-way hypothesis suite ----------------------------------------------
#
# Every operator of the DSL appears in the strategy, the Repeat family
# carries the small integer counts that κ instantiates to, and the leaves
# include Epsilon (empty string) and EmptySet (empty language), so the
# generated regexes hit exactly the shapes where end-position bookkeeping,
# nullability, and complementation go wrong.

_H_LEAVES = st.sampled_from(
    [
        r.NUM,
        r.LET,
        r.CAP,
        r.literal("a"),
        r.literal("."),
        r.Epsilon(),
        r.EmptySet(),
    ]
)

_H_REGEXES = st.recursive(
    _H_LEAVES,
    lambda children: st.one_of(
        st.builds(r.StartsWith, children),
        st.builds(r.EndsWith, children),
        st.builds(r.Contains, children),
        st.builds(r.Not, children),
        st.builds(r.Optional, children),
        st.builds(r.KleeneStar, children),
        st.builds(r.Concat, children, children),
        st.builds(r.Or, children, children),
        st.builds(r.And, children, children),
        st.builds(r.Repeat, children, st.integers(1, 3)),
        st.builds(r.RepeatAtLeast, children, st.integers(1, 2)),
        st.builds(r.RepeatRange, children, st.integers(1, 2), st.integers(2, 4)),
    ),
    max_leaves=6,
)

#: Subjects mix matching and non-matching characters; min_size=0 keeps the
#: empty string in play on every run.
_H_SUBJECTS = st.text(alphabet="aA1.b ", max_size=6)


def _end_masks(regex: r.Regex, subject: str) -> list:
    """The match-set table of ``regex`` over ``subject``, from its DFA.

    Row ``i`` has bit ``j`` set iff the compiled automaton accepts
    ``subject[i:j]`` — the same shape as :meth:`Matcher.match_sets`.
    """
    compiled = compile_regex(regex, extra_chars=subject)
    n = len(subject)
    return [
        sum(1 << j for j in range(i, n + 1) if compiled.accepts(subject[i:j]))
        for i in range(n + 1)
    ]


class TestThreeWayDifferential:
    @given(_H_REGEXES, _H_SUBJECTS)
    @settings(max_examples=200, deadline=None)
    def test_recursive_matchset_dfa_agree(self, regex, subject):
        expected = RecursiveMatcher(subject).matches(regex)
        assert Matcher(subject).matches(regex) == expected, (regex, subject)
        compiled = compile_regex(regex, extra_chars=subject)
        assert compiled.accepts(subject) == expected, (regex, subject)

    @given(_H_REGEXES, _H_SUBJECTS)
    @settings(max_examples=150, deadline=None)
    def test_end_masks_equal_match_sets(self, regex, subject):
        # The automata backend must agree with the match-set evaluator on
        # *every* (start, end) span, not just the full-string verdict.
        assert _end_masks(regex, subject) == Matcher(subject).match_sets(regex), (
            regex,
            subject,
        )

    @given(
        st.integers(1, 4),
        st.sampled_from([r.NUM, r.Optional(r.NUM), r.Concat(r.LET, r.NUM)]),
        _H_SUBJECTS,
    )
    @settings(max_examples=100, deadline=None)
    def test_kappa_bearing_repeats_agree(self, count, body, subject):
        # The Repeat family is where symbolic integers (κ) land once
        # InferConstants picks a model; the match-set evaluator must agree
        # with both oracles for every concrete instantiation.
        for regex in (
            r.Repeat(body, count),
            r.RepeatAtLeast(body, count),
            r.RepeatRange(body, count, count + 2),
        ):
            expected = RecursiveMatcher(subject).matches(regex)
            assert Matcher(subject).matches(regex) == expected, (regex, subject)
            compiled = compile_regex(regex, extra_chars=subject)
            assert compiled.accepts(subject) == expected, (regex, subject)

    @pytest.mark.parametrize(
        "regex,subject,expected",
        [
            # Empty string versus empty language, in every implementation.
            (r.Epsilon(), "", True),
            (r.Epsilon(), "a", False),
            (r.EmptySet(), "", False),
            (r.EmptySet(), "a", False),
            (r.KleeneStar(r.EmptySet()), "", True),
            (r.KleeneStar(r.EmptySet()), "a", False),
            (r.Optional(r.EmptySet()), "", True),
            (r.Not(r.EmptySet()), "", True),
            (r.Concat(r.Epsilon(), r.Epsilon()), "", True),
            (r.Repeat(r.Epsilon(), 3), "", True),
            (r.And(r.Epsilon(), r.KleeneStar(r.NUM)), "", True),
            (r.Or(r.EmptySet(), r.Epsilon()), "", True),
        ],
    )
    def test_empty_edge_cases(self, regex, subject, expected):
        assert RecursiveMatcher(subject).matches(regex) == expected
        assert Matcher(subject).matches(regex) == expected
        assert compile_regex(regex, extra_chars=subject).accepts(subject) == expected
