"""Tests for the semantic parser: tokenizer, lexicon, grammar, parsing, training."""

from dataclasses import replace
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import stackoverflow_dataset
from repro.datasets.splits import train_test_split, training_pairs
from repro.dsl import (
    Concat,
    LET,
    NUM,
    Repeat,
    RepeatRange,
    literal,
    to_dsl_string,
)
from repro.experiments.runner import trained_parser
from repro.nlp import GRAMMAR_RULES, ChartParser, LogLinearModel, SemanticParser, tokenize
from repro.nlp.lexicon import LEXICON, entries_by_first_lemma, max_phrase_length
from repro.nlp.parser import Derivation, _Beam
from repro.nlp.sketch_gen import concretize_sketch
from repro.sketch import ConcreteRegexSketch, Hole, sketch_to_string


class TestTokenizer:
    def test_basic_tokenisation(self):
        tokens = tokenize("the max number of digits is 15")
        lemmas = [t.lemma for t in tokens]
        assert "digit" in lemmas
        assert any(t.number == 15 for t in tokens)

    def test_plural_stripping(self):
        tokens = tokenize("numbers letters commas")
        assert [t.lemma for t in tokens] == ["number", "letter", "comma"]

    def test_number_words(self):
        tokens = tokenize("three letters")
        assert tokens[0].number == 3

    def test_quoted_strings(self):
        tokens = tokenize('must start with "abc" then digits')
        quoted = [t for t in tokens if t.quoted is not None]
        assert len(quoted) == 1
        assert quoted[0].quoted == "abc"

    def test_keep_s_words(self):
        tokens = tokenize("this is less")
        assert [t.lemma for t in tokens] == ["this", "is", "less"]


class TestLexicon:
    def test_lexicon_size_comparable_to_paper(self):
        # The paper reports ~70 lexical rules; ours is intentionally larger to
        # cover both datasets without SEMPRE's preprocessor.
        assert len(LEXICON) >= 70

    def test_no_duplicate_entries(self):
        seen = set()
        for entry in LEXICON:
            key = (entry.phrase, entry.category)
            assert key not in seen, key
            seen.add(key)

    def test_index_and_phrase_length(self):
        index = entries_by_first_lemma()
        assert "digit" in index
        assert max_phrase_length() >= 3


class TestChartParser:
    def test_simple_repeat_phrase(self):
        parser = ChartParser()
        roots = parser.parse("3 digits")
        assert roots
        values = [r.value for r in roots]
        assert any(
            isinstance(v, ConcreteRegexSketch) and v.regex == Repeat(NUM, 3) for v in values
        )

    def test_at_most_phrase(self):
        parser = ChartParser()
        roots = parser.parse("at most 3 numbers")
        assert any(
            isinstance(r.value, ConcreteRegexSketch)
            and r.value.regex == RepeatRange(NUM, 1, 3)
            for r in roots
        )

    def test_concat_with_skipped_words(self):
        parser = ChartParser()
        roots = parser.parse("2 letters followed by 3 digits please")
        target = Concat(Repeat(LET, 2), Repeat(NUM, 3))
        assert any(
            isinstance(r.value, ConcreteRegexSketch) and r.value.regex == target
            for r in roots
        )

    def test_quoted_literal(self):
        parser = ChartParser()
        roots = parser.parse('starts with "ab"')
        rendered = [
            to_dsl_string(concretize_sketch(r.value))
            for r in roots
            if concretize_sketch(r.value) is not None
        ]
        assert any("StartsWith" in text and "<a>" in text for text in rendered)


class TestSemanticParser:
    def test_sketches_for_motivating_example(self):
        """The Section 2 StackOverflow description yields a useful sketch."""
        parser = SemanticParser()
        text = (
            "the max number of digits before comma is 15 then accept "
            "at max 3 numbers after the comma"
        )
        sketches = parser.sketches(text, k=25)
        assert sketches
        # At least one sketch must contain the RepeatRange(<num>,1,3) hint the
        # paper highlights, and at least one must be rooted at Concat.
        rendered = [sketch_to_string(s) for s in sketches]
        assert any("RepeatRange(<num>,1,3)" in text for text in rendered)
        assert any(text.startswith("Concat(") for text in rendered)

    def test_sketches_deduplicated(self):
        parser = SemanticParser()
        sketches = parser.sketches("3 digits then a comma", k=25)
        rendered = [sketch_to_string(s) for s in sketches]
        assert len(rendered) == len(set(rendered))

    def test_fallback_to_unconstrained_hole(self):
        parser = SemanticParser()
        sketches = parser.sketches("completely unrelated gibberish qqq", k=5)
        assert sketches
        assert sketches[0] == Hole(())

    def test_translate_direct(self):
        parser = SemanticParser()
        regex = parser.translate("5 lower case letters")
        assert regex == Repeat(literal("l"), 5) or regex is not None

    def test_gold_sketch_is_reachable(self):
        """The gold sketch of the user-study style task is among the parses."""
        parser = SemanticParser()
        text = "only if either first 2 letters alpha or 8 numeric"
        sketches = parser.sketches(text, k=50)
        assert sketches


class TestTraining:
    def test_training_improves_gold_rank(self):
        examples = [
            ("3 digits then a comma", "Concat(Hole(Repeat(<num>,3)),Hole(<,>))"),
            ("a comma then 3 digits", "Concat(Hole(<,>),Hole(Repeat(<num>,3)))"),
            ("2 letters then a dash", "Concat(Hole(Repeat(<let>,2)),Hole(<->))"),
        ]
        parser = SemanticParser()
        stats = parser.train(examples, epochs=2, learning_rate=0.2)
        assert stats["examples"] == 3.0
        # After training, the gold sketch for a training utterance should rank
        # within the top sketches.
        sketches = parser.sketches("3 digits then a comma", k=10)
        rendered = [sketch_to_string(s) for s in sketches]
        assert "Concat(Hole(Repeat(<num>,3)),Hole(<,>))" in rendered

    def test_model_save_load_round_trip(self, tmp_path):
        model = LogLinearModel({"rule:prog_repeat": 1.5})
        path = tmp_path / "weights.json"
        model.save(path)
        loaded = LogLinearModel.load(path)
        assert loaded.weights == model.weights


# ---------------------------------------------------------------------------
# Differential oracle: the retry-everything chart parser
# ---------------------------------------------------------------------------


class _RemovingBeam(_Beam):
    """The chart evicting its worst derivation with ``list.remove``."""

    def add(self, derivation: Derivation) -> bool:
        signature = derivation.signature()
        if signature in self._seen:
            return False
        key = (derivation.category, derivation.start, derivation.end)
        cell = self._cells.setdefault(key, [])
        if len(cell) >= self.beam_size:
            worst = min(cell, key=lambda d: d.score)
            if worst.score >= derivation.score:
                return False
            cell.remove(worst)
        self._seen.add(signature)
        cell.append(derivation)
        return True


class _RetryingChartParser(ChartParser):
    """Oracle: re-applies every rule to every combination on every pass,
    enumerating all combinations before truncating them."""

    def parse(self, text: str, root_category: str = "$ROOT") -> List[Derivation]:
        chart = _RemovingBeam(self.beam_size)
        for derivation in self._lexical_derivations(tokenize(text)):
            self._score(derivation)
            chart.add(derivation)
        for _ in range(self.max_passes):
            new_items: List[Derivation] = []
            snapshot = chart.by_category()
            for rule in self.rules:
                new_items.extend(self._apply_rule(rule, snapshot, {}))
            added = False
            for item in new_items:
                self._score(item)
                if chart.add(item):
                    added = True
            if not added:
                break
        roots = [d for d in chart.all() if d.category == root_category]
        roots.sort(key=lambda d: (-d.score, -d.covered))
        return roots

    def _ordered_combinations(self, pools):
        combos = [()]
        for pool in pools:
            extended = []
            for prefix in combos:
                for derivation in pool:
                    if prefix:
                        gap = derivation.start - prefix[-1].end
                        if gap < 0 or gap > self.max_gap:
                            continue
                    extended.append(prefix + (derivation,))
            combos = extended
            if len(combos) > 4000:
                combos = combos[:4000]
        return [combo for combo in combos if combo]


def _roots(parser: ChartParser, text: str) -> list:
    return [
        (d.category, d.start, d.end, repr(d.value), d.rule, d.score, d.covered)
        for d in parser.parse(text)
    ]


_DESCRIPTIONS = [task.description for task in stackoverflow_dataset()]


@pytest.fixture(scope="module")
def trained_model() -> LogLinearModel:
    train, _ = train_test_split(stackoverflow_dataset(), 0.6, seed=29)
    return trained_parser(train).model


class TestParserMatchesRetryingOracle:
    def test_untrained_on_stackoverflow(self):
        assert len(_DESCRIPTIONS) == 62
        for text in _DESCRIPTIONS:
            assert _roots(ChartParser(), text) == _roots(_RetryingChartParser(), text), text

    def test_trained_on_stackoverflow(self, trained_model):
        for text in _DESCRIPTIONS:
            assert _roots(ChartParser(model=trained_model), text) == _roots(
                _RetryingChartParser(model=trained_model), text
            ), text

    def test_training_gives_the_same_weights(self):
        train, _ = train_test_split(stackoverflow_dataset(), 0.6, seed=29)
        pairs = training_pairs(train)[:12]
        new, oracle = LogLinearModel(), LogLinearModel()
        new.train(pairs, lambda: ChartParser(model=new), epochs=1)
        oracle.train(pairs, lambda: _RetryingChartParser(model=oracle), epochs=1)
        assert new.weights and new.weights == oracle.weights

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([" ".join(entry.phrase) for entry in LEXICON]),
                st.integers(min_value=0, max_value=20).map(str),
                st.text(alphabet="ab1-,.", max_size=3).map(lambda text: f'"{text}"'),
                st.sampled_from(["then", "and", "or", "the", "with", "only"]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_random_token_strings(self, pieces):
        text = " ".join(pieces)
        assert _roots(ChartParser(), text) == _roots(_RetryingChartParser(), text)


def test_parse_work_on_stackoverflow_is_pinned():
    """Semantic-function calls over the 62 descriptions, untrained parser.

    Retrying every combination on every pass made 126,240 calls; trying each
    (rule, combination) once makes 56,771.
    """
    calls = 0

    def counted(rule):
        def fn(*values):
            nonlocal calls
            calls += 1
            return rule.fn(*values)

        return replace(rule, fn=fn)

    parser = ChartParser(rules=[counted(rule) for rule in GRAMMAR_RULES])
    for text in _DESCRIPTIONS:
        parser.parse(text)
    assert calls <= 56_771
