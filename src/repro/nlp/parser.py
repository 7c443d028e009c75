"""Chart parser with token skipping and beam search (Section 5.2).

Derivations are built bottom-up: lexical rules fire over matching token
spans, then compositional rules combine derivations over *ordered,
non-overlapping* spans (any tokens in between are skipped, mirroring
SEMPRE's floating/skipping behaviour).  A beam per (category, span) keeps the
search tractable; the beam is ordered by the current model score.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

from repro.dsl import ast as rast
from repro.dsl.ast import string_literal
from repro.nlp.grammar import GRAMMAR_RULES, Rule
from repro.nlp.lexicon import LEXICON, LexicalEntry, max_phrase_length
from repro.nlp.tokenizer import Token, tokenize


@dataclass
class Derivation:
    """One derivation: a category with a semantic value over a token span."""

    category: str
    start: int
    end: int
    value: object
    rule: str
    children: tuple["Derivation", ...] = ()
    features: Dict[str, float] = field(default_factory=dict)
    score: float = 0.0

    @cached_property
    def covered(self) -> int:
        """Number of tokens actually consumed by lexical leaves."""
        if not self.children:
            return self.end - self.start
        return sum(child.covered for child in self.children)

    def signature(self) -> tuple:
        """Key used to de-duplicate semantically identical derivations."""
        return (self.category, self.start, self.end, repr(self.value))


class ChartParser:
    """Beam chart parser producing ranked derivations for an utterance."""

    def __init__(
        self,
        model=None,
        beam_size: int = 40,
        max_gap: int = 4,
        max_passes: int = 6,
        rules: Sequence[Rule] = GRAMMAR_RULES,
        lexicon: Sequence[LexicalEntry] = LEXICON,
    ):
        self.model = model
        self.beam_size = beam_size
        self.max_gap = max_gap
        self.max_passes = max_passes
        self.rules = list(rules)
        self.lexicon = list(lexicon)
        self._lexicon_index: Dict[str, List[LexicalEntry]] = {}
        for entry in self.lexicon:
            self._lexicon_index.setdefault(entry.phrase[0], []).append(entry)

    # -- public API ----------------------------------------------------------

    def parse(self, text: str, root_category: str = "$ROOT") -> List[Derivation]:
        """Parse an utterance; returns root derivations sorted by score."""
        tokens = tokenize(text)
        chart = _Beam(self.beam_size)
        for derivation in self._lexical_derivations(tokens):
            self._score(derivation)
            chart.add(derivation)

        # Every (rule, combination) tried so far, keyed by the children's ids;
        # holding the combination keeps those ids from being reused.
        tried: Dict[tuple, Tuple[Derivation, ...]] = {}
        for _ in range(self.max_passes):
            new_items: List[Derivation] = []
            snapshot = chart.by_category()
            for rule in self.rules:
                new_items.extend(self._apply_rule(rule, snapshot, tried))
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

    # -- internals -------------------------------------------------------------

    def _lexical_derivations(self, tokens: List[Token]) -> List[Derivation]:
        derivations: List[Derivation] = []
        lemmas = [token.lemma for token in tokens]
        limit = max_phrase_length()
        for start, token in enumerate(tokens):
            if token.quoted is not None:
                value = string_literal(token.quoted) if token.quoted else rast.Epsilon()
                derivations.append(
                    Derivation("$PROGRAM", start, start + 1, value, "lex:quoted",
                               features={"rule:lex:quoted": 1.0})
                )
                continue
            if token.number is not None:
                derivations.append(
                    Derivation("$INT", start, start + 1, token.number, "lex:int",
                               features={"rule:lex:int": 1.0})
                )
            for entry in self._lexicon_index.get(token.lemma, ()):
                length = len(entry.phrase)
                if length > limit or start + length > len(tokens):
                    continue
                if tuple(lemmas[start:start + length]) == entry.phrase:
                    rule_name = f"lex:{' '.join(entry.phrase)}"
                    derivations.append(
                        Derivation(entry.category, start, start + length, entry.value,
                                   rule_name, features={f"rule:{rule_name}": 1.0})
                    )
        return derivations

    def _apply_rule(
        self,
        rule: Rule,
        by_category: Dict[str, List[Derivation]],
        tried: Dict[tuple, Tuple[Derivation, ...]],
    ) -> List[Derivation]:
        """Derivations of ``rule`` over the combinations not in ``tried``.

        A combination tried in an earlier pass is skipped: ``rule.fn``, the
        features and the score are deterministic, so it would rebuild the same
        derivation, and the chart would reject it again (its signature stays
        seen, and a full cell stays full while its minimum score never falls).
        """
        pools = [by_category.get(category, []) for category in rule.rhs]
        if any(not pool for pool in pools):
            return []
        results: List[Derivation] = []
        for combo in self._ordered_combinations(pools):
            key = (rule.name, *map(id, combo))
            if key in tried:
                continue
            tried[key] = combo
            value = rule.fn(*[d.value for d in combo])
            if value is None:
                continue
            features: Dict[str, float] = {}
            for child in combo:
                for key, weight in child.features.items():
                    features[key] = features.get(key, 0.0) + weight
            features[f"rule:{rule.name}"] = features.get(f"rule:{rule.name}", 0.0) + 1.0
            start, end = combo[0].start, combo[-1].end
            covered = sum(d.covered for d in combo)
            features["span:skipped"] = float((end - start) - covered)
            features["span:covered"] = float(covered)
            results.append(
                Derivation(rule.target, start, end, value, rule.name, tuple(combo), features)
            )
        return results

    def _ordered_combinations(
        self, pools: List[List[Derivation]]
    ) -> List[Tuple[Derivation, ...]]:
        """Tuples of derivations with ordered, non-overlapping spans.

        Each span starts at most ``max_gap`` tokens after the previous one
        ends; tuples follow pool order, and each stage keeps its first 4,000.
        """
        combos: List[Tuple[Derivation, ...]] = [()]
        for pool in pools:
            extended: List[Tuple[Derivation, ...]] = []
            fitting: Dict[int | None, List[Derivation]] = {}
            for prefix in combos:
                end = prefix[-1].end if prefix else None
                if end not in fitting:
                    fitting[end] = pool if end is None else [
                        d for d in pool if end <= d.start <= end + self.max_gap
                    ]
                extended.extend(prefix + (d,) for d in fitting[end][:4000 - len(extended)])
                if len(extended) == 4000:
                    break
            combos = extended
        return [combo for combo in combos if combo]

    def _score(self, derivation: Derivation) -> None:
        if self.model is None:
            # Default heuristic: prefer derivations that explain more tokens
            # with fewer skips.
            derivation.score = derivation.covered - 0.1 * len(derivation.features)
        else:
            derivation.score = self.model.score(derivation.features)


class _Beam:
    """Chart cells with per-(category, span) beams and global de-duplication."""

    def __init__(self, beam_size: int):
        self.beam_size = beam_size
        self._cells: Dict[Tuple[str, int, int], List[Derivation]] = {}
        self._seen: set = set()

    def add(self, derivation: Derivation) -> bool:
        signature = derivation.signature()
        if signature in self._seen:
            return False
        key = (derivation.category, derivation.start, derivation.end)
        cell = self._cells.setdefault(key, [])
        if len(cell) >= self.beam_size:
            scores = [d.score for d in cell]
            lowest = min(scores)
            if lowest >= derivation.score:
                return False
            del cell[scores.index(lowest)]
        self._seen.add(signature)
        cell.append(derivation)
        return True

    def all(self) -> List[Derivation]:
        return [d for cell in self._cells.values() for d in cell]

    def by_category(self) -> Dict[str, List[Derivation]]:
        index: Dict[str, List[Derivation]] = {}
        for derivation in self.all():
            index.setdefault(derivation.category, []).append(derivation)
        for pool in index.values():
            pool.sort(key=lambda d: -d.score)
        return index
