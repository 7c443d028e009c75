"""Soundness and behaviour tests for :mod:`repro.analysis`.

The contract under test is one-directional: the analyzer may answer "maybe",
it must never produce a wrong "no".  Concretely:

* over side — a string the evaluator/automata accept must satisfy
  ``facts.may_match`` (a False is a *proof* of rejection);
* under side — ``facts.must_match(s)`` implies the evaluator accepts ``s``;
* mirror property — with ``kmax=None``, a partial the facts reject is also
  rejected by the Figure-11 approximation (``infeasible``), so a facts
  pre-filter in front of the engine's approximation check would only
  duplicate it;
* κ mode — with ``kmax=K``, facts must bracket every concrete substitution
  of the symbolic integers in ``[1, K]``.

Three oracles: the match-set evaluator, the automata backend's language
enumeration, and hypothesis-generated regex/subject pairs.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.analysis import (
    TOP_FACTS,
    facts_of_partial,
    facts_of_regex,
    facts_of_sketch,
    partial_prune_reason,
    static_infeasible,
)
from repro.analysis.facts import (
    EMPTY_FACTS,
    EPSILON_FACTS,
    char_class_facts,
    concat_facts,
    not_facts,
    optional_facts,
    or_facts,
    repeat_facts,
    star_facts,
)
from repro.automata import enumerate_language, language_nonempty, sample_positive
from repro.dsl import ast as r
from repro.dsl.semantics import Matcher
from repro.sketch import parse_sketch
from repro.synthesis import (
    Examples,
    SynthesisConfig,
    expand,
    infeasible,
    initial_partial,
    open_nodes,
)
from repro.synthesis.expand import SymIntFactory
from repro.synthesis.partial import PLeaf, POp, SymInt

from test_eval_equivalence import LEAVES, random_regex, random_subject

SEED = 20260808


# ---------------------------------------------------------------------------
# Transfer-function unit tests
# ---------------------------------------------------------------------------

class TestFacts:
    def test_top_accepts_everything(self):
        for subject in ("", "abc", "\x00é"):
            assert TOP_FACTS.may_match(subject)
            assert not TOP_FACTS.must_match(subject)

    def test_char_class(self):
        facts = char_class_facts(frozenset("0123456789"))
        assert facts.may_match("7")
        assert facts.reject_reason("") == "too-short"
        assert facts.reject_reason("77") == "too-long"
        assert facts.reject_reason("a") in ("first-char", "last-char", "foreign-char")

    def test_concat_lengths(self):
        digit = char_class_facts(frozenset("01"))
        two = concat_facts(digit, digit)
        assert two.min_len == 2 and two.max_len == 2
        assert two.reject_reason("0") == "too-short"

    def test_concat_required_groups(self):
        digits = char_class_facts(frozenset("01"))
        dash = char_class_facts(frozenset("-"))
        facts = concat_facts(digits, dash)
        # "00" fails several facts at once (last-char, foreign-char, the
        # required dash group) — which one reports first is unspecified.
        assert facts.reject_reason("00") is not None
        assert facts.may_match("0-")
        # A case only the required-group conjunction can catch: pad with an
        # optional tail so length/first/last/allowed all pass.
        padded = concat_facts(facts, star_facts(char_class_facts(frozenset("01-"))))
        assert padded.reject_reason("0-0") is None
        assert padded.may_match("0-11")

    def test_or_required_is_pairwise_union(self):
        a = char_class_facts(frozenset("a"))
        b = char_class_facts(frozenset("b"))
        facts = or_facts(a, b)
        # Either branch may match, so only "a or b present" is required.
        assert facts.may_match("a") and facts.may_match("b")
        assert facts.reject_reason("c") is not None

    def test_optional_drops_required(self):
        facts = optional_facts(char_class_facts(frozenset("a")))
        assert facts.may_match("")
        assert facts.must_match("")

    def test_star_keeps_charset(self):
        facts = star_facts(char_class_facts(frozenset("ab")))
        assert facts.may_match("")
        assert facts.may_match("abab")
        assert facts.reject_reason("abc") is not None  # 'c' is unreachable
        assert facts.reject_reason("acb") == "foreign-char"

    def test_not_swaps_sides(self):
        assert not_facts(EMPTY_FACTS).universal
        # Not(ε) rejects exactly "" — min_len 1 on the over side.
        facts = not_facts(EPSILON_FACTS)
        assert facts.reject_reason("") == "too-short"

    def test_repeat_scales_interval(self):
        digit = char_class_facts(frozenset("0"))
        facts = repeat_facts(digit, 2, 4)
        assert facts.min_len == 2 and facts.max_len == 4

    def test_empty_facts_reject_all(self):
        assert EMPTY_FACTS.reject_reason("") == "empty-language"
        assert EMPTY_FACTS.reject_reason("x") == "empty-language"


# ---------------------------------------------------------------------------
# Differential: concrete regexes vs the automata backend
# ---------------------------------------------------------------------------

class TestRegexFactsDifferential:
    def test_language_members_satisfy_over_side(self):
        rng = random.Random(SEED)
        for _ in range(300):
            regex = random_regex(rng, 3)
            facts = facts_of_regex(regex)
            for accepted in enumerate_language(regex, max_length=4, limit=40):
                assert facts.may_match(accepted), (regex, accepted, facts)
                assert facts.min_len <= len(accepted)
                assert facts.max_len is None or len(accepted) <= facts.max_len

    def test_empty_fact_implies_empty_language(self):
        rng = random.Random(SEED + 1)
        checked = 0
        for _ in range(400):
            regex = random_regex(rng, 3)
            if facts_of_regex(regex).empty:
                checked += 1
                assert not language_nonempty(regex), regex
        assert checked > 0  # the generator does produce provably-empty trees

    def test_under_side_members_are_accepted(self):
        rng = random.Random(SEED + 2)
        for _ in range(300):
            regex = random_regex(rng, 3)
            facts = facts_of_regex(regex)
            subject = random_subject(rng)
            if facts.must_match(subject):
                assert Matcher(subject).matches(regex), (regex, subject)

    def test_sampled_positives_satisfy_facts(self):
        rng = random.Random(SEED + 3)
        for _ in range(80):
            regex = random_regex(rng, 3)
            facts = facts_of_regex(regex)
            for accepted in sample_positive(regex, 5, rng=rng, max_length=10):
                assert facts.may_match(accepted), (regex, accepted, facts)


# ---------------------------------------------------------------------------
# Hypothesis: regex strategy + arbitrary subjects
# ---------------------------------------------------------------------------

_subjects = st.text(alphabet="aA1. -b9,é\x00", max_size=7)

_regexes = st.recursive(
    st.sampled_from(LEAVES),
    lambda children: st.one_of(
        children.map(r.StartsWith),
        children.map(r.EndsWith),
        children.map(r.Contains),
        children.map(r.Not),
        children.map(r.Optional),
        children.map(r.KleeneStar),
        st.tuples(children, children).map(lambda pair: r.Concat(*pair)),
        st.tuples(children, children).map(lambda pair: r.Or(*pair)),
        st.tuples(children, children).map(lambda pair: r.And(*pair)),
        st.tuples(children, st.integers(1, 4)).map(lambda pair: r.Repeat(*pair)),
        st.tuples(children, st.integers(1, 3)).map(lambda pair: r.RepeatAtLeast(*pair)),
        st.tuples(children, st.integers(1, 3), st.integers(0, 3)).map(
            lambda triple: r.RepeatRange(triple[0], triple[1], triple[1] + triple[2])
        ),
    ),
    max_leaves=12,
)


class TestHypothesisSoundness:
    @settings(max_examples=200, deadline=None)
    @given(regex=_regexes, subject=_subjects)
    def test_no_false_rejection(self, regex, subject):
        # The core soundness property: a rejection by the facts is a proof,
        # so the evaluator must agree.  (May-match gives no information.)
        facts = facts_of_regex(regex)
        if not facts.may_match(subject):
            assert not Matcher(subject).matches(regex), (regex, subject, facts)

    @settings(max_examples=200, deadline=None)
    @given(regex=_regexes, subject=_subjects)
    def test_no_false_acceptance_on_under_side(self, regex, subject):
        facts = facts_of_regex(regex)
        if facts.must_match(subject):
            assert Matcher(subject).matches(regex), (regex, subject, facts)


# ---------------------------------------------------------------------------
# Sketches and partial regexes
# ---------------------------------------------------------------------------

def _successors(sketch_text: str, config: SynthesisConfig, rounds: int = 2):
    """A couple of BFS levels of engine expansions for a sketch."""
    symints = SymIntFactory()
    frontier = [initial_partial(parse_sketch(sketch_text))]
    seen = []
    for _ in range(rounds):
        next_frontier = []
        for partial in frontier:
            nodes = open_nodes(partial)
            if not nodes:
                continue
            for successor in expand(partial, nodes[0], config, symints):
                seen.append(successor)
                next_frontier.append(successor)
        frontier = next_frontier[:40]
    return seen


class TestPartialFacts:
    CONFIG = SynthesisConfig(hole_depth=2, timeout=5.0)

    def test_concrete_partial_matches_regex_facts(self):
        regex = r.Concat(r.NUM, r.KleeneStar(r.LET))
        assert facts_of_partial(PLeaf(regex)) == facts_of_regex(regex)

    def test_static_pruned_implies_approximate_pruned(self):
        # The mirror property: with kmax=None every fact abstracts the
        # Figure-11 over/under pair, so a facts rejection implies an
        # approximation rejection.  (kmax=max_kappa, which is tighter, is
        # tested separately.)
        examples = Examples(["123456789.12", "1.2"], ["12345", "x"])
        config = SynthesisConfig(
            hole_depth=2, timeout=5.0, use_symbolic_ints=False
        )
        sketch = "Concat(Hole(<num>),Hole(Optional(Concat(<.>,<num>))))"
        checked = 0
        for successor in _successors(sketch, config, rounds=3):
            if static_infeasible(successor, examples, config):
                checked += 1
                assert infeasible(successor, examples, config), successor
        # Concrete partials are where the facts bite hardest; sweep random
        # regexes against random example sets for volume.
        rng = random.Random(SEED + 10)
        for _ in range(300):
            partial = PLeaf(random_regex(rng, 3))
            random_examples = Examples(
                [random_subject(rng) for _ in range(2)],
                [random_subject(rng) for _ in range(2)],
            )
            if static_infeasible(partial, random_examples, config):
                checked += 1
                assert infeasible(partial, random_examples, config), (
                    partial,
                    random_examples,
                )
        assert checked > 20  # the property was actually exercised

    def test_kappa_substitution_soundness(self):
        # kmax mode: facts must bracket every substitution κ ∈ [1, K].
        kmax = 4
        partial = POp(
            "Concat",
            (
                POp("RepeatRange", (PLeaf(r.NUM),), (1, SymInt("k1"))),
                PLeaf(r.literal("-")),
            ),
        )
        facts = facts_of_partial(partial, hole_depth=2, kmax=kmax)
        for kappa in range(1, kmax + 1):
            concrete = r.Concat(r.RepeatRange(r.NUM, 1, kappa), r.literal("-"))
            for accepted in enumerate_language(concrete, max_length=5, limit=30):
                assert facts.may_match(accepted), (kappa, accepted, facts)

    def test_symbolic_without_kmax_is_unbounded(self):
        partial = POp("Repeat", (PLeaf(r.NUM),), (SymInt("k1"),))
        facts = facts_of_partial(partial, hole_depth=2, kmax=None)
        assert facts.max_len is None
        assert facts.min_len <= 1

    def test_sketch_facts_bracket_completions(self):
        sketch = parse_sketch("Concat(Hole(<cap>),Hole(<num>))")
        # At depth 1 a hole can only be filled by a component (see
        # _hole_expansions), so the sole completion is Concat(<cap>,<num>).
        facts = facts_of_sketch(sketch, hole_depth=1)
        assert facts.may_match("A1")
        assert facts.reject_reason("AB12") == "too-long"
        assert facts.reject_reason("ab") is not None  # lowercase impossible
        # At depth 3 the same holes admit Repeat/Star towers: the length
        # interval must widen back out.
        deep = facts_of_sketch(sketch, hole_depth=3)
        assert deep.may_match("AB12")


# ---------------------------------------------------------------------------
# Engine integration: zero false "infeasible" verdicts
# ---------------------------------------------------------------------------

class TestEnginePruneSoundness:
    def test_prune_reason_is_none_for_consistent_partial(self):
        examples = Examples(["12", "99"], ["1", "abc"])
        config = SynthesisConfig(hole_depth=2, timeout=5.0)
        partial = PLeaf(r.Repeat(r.NUM, 2))
        assert partial_prune_reason(partial, examples, config) is None

    def test_disabled_by_config_flags(self):
        examples = Examples(["ab"], [])
        partial = PLeaf(r.Repeat(r.NUM, 2))  # provably rejects "ab"
        on = SynthesisConfig(hole_depth=2, timeout=5.0)
        assert partial_prune_reason(partial, examples, on) is not None
        off = SynthesisConfig(hole_depth=2, timeout=5.0, use_approximation=False)
        assert partial_prune_reason(partial, examples, off) is None
