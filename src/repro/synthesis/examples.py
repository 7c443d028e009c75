"""Positive/negative example sets and cached membership checking."""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

from repro.dsl import ast
from repro.dsl.semantics import Matcher


class Examples:
    """A set of positive and negative string examples.

    Membership checks reuse one :class:`~repro.dsl.semantics.Matcher` per
    example string, so evaluating thousands of candidate regexes against the
    same examples shares the memoised per-node match sets.
    """

    def __init__(self, positive: Iterable[str], negative: Iterable[str]):
        self.positive: tuple[str, ...] = tuple(positive)
        self.negative: tuple[str, ...] = tuple(negative)
        self._matchers: Dict[str, Matcher] = {}
        self._pos_matchers: tuple = ()
        self._neg_matchers: tuple = ()

    def __repr__(self) -> str:
        return f"Examples(positive={list(self.positive)!r}, negative={list(self.negative)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Examples):
            return NotImplemented
        return self.positive == other.positive and self.negative == other.negative

    def __hash__(self) -> int:
        return hash((self.positive, self.negative))

    def matcher(self, text: str) -> Matcher:
        matcher = self._matchers.get(text)
        if matcher is None:
            matcher = self._matchers[text] = Matcher(text)
        return matcher

    def matches(self, regex: ast.Regex, text: str) -> bool:
        """Membership of one example string (cached)."""
        return self.matcher(text).matches(regex)

    def positive_matchers(self) -> tuple:
        """One matcher per positive example (built lazily, then reused)."""
        matchers = self._pos_matchers
        if len(matchers) != len(self.positive):
            matchers = self._pos_matchers = tuple(
                self.matcher(s) for s in self.positive
            )
        return matchers

    def negative_matchers(self) -> tuple:
        """One matcher per negative example (built lazily, then reused)."""
        matchers = self._neg_matchers
        if len(matchers) != len(self.negative):
            matchers = self._neg_matchers = tuple(
                self.matcher(s) for s in self.negative
            )
        return matchers

    def consistent(self, regex: ast.Regex) -> bool:
        """True iff the regex accepts every positive and rejects every negative example."""
        return self.accepts_all_positive(regex) and self.rejects_all_negative(regex)

    def accepts_all_positive(self, regex: ast.Regex) -> bool:
        return all(matcher.matches(regex) for matcher in self.positive_matchers())

    def rejects_all_negative(self, regex: ast.Regex) -> bool:
        return not any(matcher.matches(regex) for matcher in self.negative_matchers())

    def eval_cache_stats(self) -> Tuple[int, int]:
        """Aggregate ``(hits, misses)`` of the per-subject match-set tables."""
        hits = misses = 0
        for matcher in self._matchers.values():
            hits += matcher.cache_hits
            misses += matcher.cache_misses
        return hits, misses

    def extended(
        self, extra_positive: Sequence[str] = (), extra_negative: Sequence[str] = ()
    ) -> "Examples":
        """A new example set with additional examples (iterative protocol of Sec. 8.1)."""
        return Examples(
            tuple(dict.fromkeys([*self.positive, *extra_positive])),
            tuple(dict.fromkeys([*self.negative, *extra_negative])),
        )

    def literal_characters(self) -> str:
        """Characters occurring in the positive examples, used as literal leaf candidates."""
        seen: dict[str, None] = {}
        for text in self.positive:
            for char in text:
                seen.setdefault(char, None)
        return "".join(seen)

    def max_positive_length(self) -> int:
        return max((len(s) for s in self.positive), default=0)

    def __len__(self) -> int:
        return len(self.positive) + len(self.negative)
