"""Exact matching semantics of the regex DSL (Figure 6 of the paper).

Two evaluators implement ``[[r]](s)``:

* :class:`Matcher` — the production **match-set** evaluator.  For each regex
  node it computes, bottom-up and exactly once per ``(node, subject)`` pair,
  the complete relation "``s[i:j]`` matches the node" as one integer bitmask
  of end positions ``j`` per start index ``i``.  Boolean connectives
  (``Or``/``And``/``Not``) become bitwise operations on whole rows,
  ``Concat``/``KleeneStar``/the ``Repeat`` family become span composition,
  and ``StartsWith``/``EndsWith``/``Contains`` are O(1) mask tests per row.
  Because DSL nodes are hash-consed (:mod:`repro.dsl.intern`), structurally
  equal sub-regexes are the *same* object and share one table entry across
  all candidate regexes evaluated against the subject — which is the access
  pattern of the PBE engine (thousands of candidates, a handful of example
  strings).
* :class:`RecursiveMatcher` — the original per-``(node, i, j)`` boolean
  recursion, kept verbatim as an executable reference oracle for the
  differential tests (``tests/test_eval_equivalence.py``) and the
  benchmark's solution checker.

Automata-based evaluation (:mod:`repro.automata`) remains the tool for
language-level reasoning (complement, equivalence, sampling).
"""

from __future__ import annotations

from functools import reduce
from operator import ior
from typing import Dict, List, Tuple

from repro.dsl import ast
from repro.dsl.charclass import chars_of


def _lowest_bit_index(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _bit_indices(mask: int) -> Tuple[int, ...]:
    """Indices of the set bits of ``mask``, ascending."""
    indices = []
    while mask:
        low = mask & -mask
        mask ^= low
        indices.append(low.bit_length() - 1)
    return tuple(indices)


class Matcher:
    """Match-set evaluator specialised to a single subject string.

    A :class:`Matcher` can answer ``[[r]](s[i:j])`` queries for many regexes;
    the per-node match-set table is shared across queries.  ``cache_hits`` /
    ``cache_misses`` count node-table lookups and are surfaced through the
    engine's telemetry (:class:`repro.api.results.SketchReport`).
    """

    __slots__ = (
        "subject",
        "cache_hits",
        "cache_misses",
        "_n",
        "_sets",
        "_full",
        "_bits",
    )

    def __init__(self, subject: str):
        self.subject = subject
        n = len(subject)
        self._n = n
        #: node -> list of bitmasks; row ``i`` has bit ``j`` set iff
        #: ``subject[i:j]`` matches the node (invariant: only bits ``>= i``).
        self._sets: Dict[ast.Regex, List[int]] = {}
        all_bits = (1 << (n + 1)) - 1
        self._full = [all_bits & ~((1 << i) - 1) for i in range(n + 1)]
        #: mask -> tuple of set-bit indices.  Row masks repeat heavily across
        #: the node tables of one subject, so decoding each distinct mask once
        #: lets span composition run its inner loop through C (map/reduce)
        #: instead of a per-bit Python loop.
        self._bits: Dict[int, Tuple[int, ...]] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def matches(self, regex: ast.Regex) -> bool:
        """Return True iff ``regex`` matches the whole subject string."""
        sets = self._sets.get(regex)
        if sets is None:
            sets = self.match_sets(regex)
        else:
            self.cache_hits += 1
        return bool((sets[0] >> self._n) & 1)

    def matches_span(self, regex: ast.Regex, i: int, j: int) -> bool:
        """Return True iff ``regex`` matches ``subject[i:j]``."""
        return bool((self.match_sets(regex)[i] >> j) & 1)

    def match_sets(self, regex: ast.Regex) -> List[int]:
        """The full match-set table of ``regex`` (do not mutate)."""
        sets = self._sets.get(regex)
        if sets is not None:
            self.cache_hits += 1
            return sets
        self.cache_misses += 1
        sets = self._compute(regex)
        self._sets[regex] = sets
        return sets

    # -- internal ----------------------------------------------------------

    def _compute(self, regex: ast.Regex) -> List[int]:
        n = self._n
        if isinstance(regex, ast.CharClass):
            chars = chars_of(regex.kind)
            subject = self.subject
            out = [0] * (n + 1)
            for i in range(n):
                if subject[i] in chars:
                    out[i] = 1 << (i + 1)
            return out
        if isinstance(regex, ast.Epsilon):
            return [1 << i for i in range(n + 1)]
        if isinstance(regex, ast.EmptySet):
            return [0] * (n + 1)
        if isinstance(regex, ast.StartsWith):
            # s[i:j] has a matching prefix iff the child's shortest match end
            # from i is <= j: a full tail-mask starting at that end position.
            child = self.match_sets(regex.arg)
            full = self._full
            return [full[_lowest_bit_index(m)] if m else 0 for m in child]
        if isinstance(regex, ast.EndsWith):
            # s[i:j] has a matching suffix iff some child match (k, j) exists
            # with k >= i: the suffix-OR of the child's rows.
            child = self.match_sets(regex.arg)
            out = [0] * (n + 1)
            acc = 0
            for i in range(n, -1, -1):
                acc |= child[i]
                out[i] = acc
            return out
        if isinstance(regex, ast.Contains):
            # s[i:j] has a matching substring iff the earliest child match end
            # over all starts >= i is <= j.
            child = self.match_sets(regex.arg)
            full = self._full
            out = [0] * (n + 1)
            acc = 0
            for i in range(n, -1, -1):
                acc |= child[i]
                if acc:
                    out[i] = full[_lowest_bit_index(acc)]
            return out
        if isinstance(regex, ast.Not):
            child = self.match_sets(regex.arg)
            full = self._full
            return [full[i] & ~child[i] for i in range(n + 1)]
        if isinstance(regex, ast.Optional):
            child = self.match_sets(regex.arg)
            return [child[i] | (1 << i) for i in range(n + 1)]
        if isinstance(regex, ast.KleeneStar):
            return self._star(self.match_sets(regex.arg))
        if isinstance(regex, ast.Concat):
            return self._compose(
                self.match_sets(regex.left), self.match_sets(regex.right)
            )
        if isinstance(regex, ast.Or):
            left = self.match_sets(regex.left)
            right = self.match_sets(regex.right)
            return [left[i] | right[i] for i in range(n + 1)]
        if isinstance(regex, ast.And):
            left = self.match_sets(regex.left)
            right = self.match_sets(regex.right)
            return [left[i] & right[i] for i in range(n + 1)]
        if isinstance(regex, ast.Repeat):
            # Computed as Repeat(r, c-1) . r so every power is itself an
            # interned node with a cached table: a RepeatRange sweep (and any
            # candidate family differing only in counts) reuses all of them.
            if regex.count == 1:
                return self.match_sets(regex.arg)
            prev = self.match_sets(ast.Repeat(regex.arg, regex.count - 1))
            return self._compose(prev, self.match_sets(regex.arg))
        if isinstance(regex, ast.RepeatAtLeast):
            # RepeatAtLeast(r, c) == Concat(Repeat(r, c), KleeneStar(r)).
            prefix = (
                self.match_sets(ast.Repeat(regex.arg, regex.count))
                if regex.count > 1
                else self.match_sets(regex.arg)
            )
            return self._compose(prefix, self.match_sets(ast.KleeneStar(regex.arg)))
        if isinstance(regex, ast.RepeatRange):
            out = list(self.match_sets(ast.Repeat(regex.arg, regex.low)))
            for count in range(regex.low + 1, regex.high + 1):
                rep = self.match_sets(ast.Repeat(regex.arg, count))
                out = [a | b for a, b in zip(out, rep)]
            return out
        raise TypeError(f"unknown regex node: {regex!r}")

    def _compose(self, left: List[int], right: List[int]) -> List[int]:
        """Span composition: out[i] bit j iff some k has left[i] bit k and right[k] bit j."""
        out = [0] * (self._n + 1)
        bits = self._bits
        getter = right.__getitem__
        for i in range(self._n, -1, -1):
            mask = left[i]
            if not mask:
                continue
            if not mask & (mask - 1):  # single span end: one row lookup
                out[i] = right[mask.bit_length() - 1]
                continue
            indices = bits.get(mask)
            if indices is None:
                indices = bits[mask] = _bit_indices(mask)
            out[i] = reduce(ior, map(getter, indices))
        return out

    def _star(self, child: List[int]) -> List[int]:
        """Reflexive-transitive closure of ``child`` steps (non-empty pieces)."""
        n = self._n
        out = [0] * (n + 1)
        out[n] = 1 << n
        bits = self._bits
        for i in range(n - 1, -1, -1):
            acc = 1 << i
            mask = child[i] & ~acc  # empty pieces add nothing
            if mask:
                indices = bits.get(mask)
                if indices is None:
                    indices = bits[mask] = _bit_indices(mask)
                acc = reduce(ior, map(out.__getitem__, indices), acc)
            out[i] = acc
        return out


class RecursiveMatcher:
    """The original memoised boolean recursion (reference oracle).

    Kept byte-for-byte equivalent to the pre-match-set implementation: memo
    keys use ``id(node)`` with a keep-alive list, and each ``(node, i, j)``
    sub-problem is decided independently.  Use :class:`Matcher` in production
    code; this class exists for differential testing.
    """

    def __init__(self, subject: str):
        self.subject = subject
        self._memo: Dict[Tuple[int, int, int], bool] = {}
        # Memo keys use id(node); keep every queried regex alive so node ids
        # are never recycled while their cached entries are still present.
        self._roots: list[ast.Regex] = []

    def matches(self, regex: ast.Regex) -> bool:
        """Return True iff ``regex`` matches the whole subject string."""
        self._roots.append(regex)
        return self._eval(regex, 0, len(self.subject))

    # -- internal ----------------------------------------------------------

    def _eval(self, regex: ast.Regex, i: int, j: int) -> bool:
        key = (id(regex), i, j)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        # Seed the memo with False to cut (impossible) cyclic re-entry short;
        # the DSL has no recursive references so this is purely defensive.
        self._memo[key] = False
        result = self._eval_uncached(regex, i, j)
        self._memo[key] = result
        return result

    def _eval_uncached(self, regex: ast.Regex, i: int, j: int) -> bool:
        s = self.subject
        if isinstance(regex, ast.CharClass):
            return j - i == 1 and s[i] in chars_of(regex.kind)
        if isinstance(regex, ast.Epsilon):
            return i == j
        if isinstance(regex, ast.EmptySet):
            return False
        if isinstance(regex, ast.StartsWith):
            return any(self._eval(regex.arg, i, k) for k in range(i, j + 1))
        if isinstance(regex, ast.EndsWith):
            return any(self._eval(regex.arg, k, j) for k in range(i, j + 1))
        if isinstance(regex, ast.Contains):
            return any(
                self._eval(regex.arg, a, b)
                for a in range(i, j + 1)
                for b in range(a, j + 1)
            )
        if isinstance(regex, ast.Not):
            return not self._eval(regex.arg, i, j)
        if isinstance(regex, ast.Optional):
            return i == j or self._eval(regex.arg, i, j)
        if isinstance(regex, ast.KleeneStar):
            return self._eval_star(regex, regex.arg, i, j)
        if isinstance(regex, ast.Concat):
            return any(
                self._eval(regex.left, i, k) and self._eval(regex.right, k, j)
                for k in range(i, j + 1)
            )
        if isinstance(regex, ast.Or):
            return self._eval(regex.left, i, j) or self._eval(regex.right, i, j)
        if isinstance(regex, ast.And):
            return self._eval(regex.left, i, j) and self._eval(regex.right, i, j)
        if isinstance(regex, ast.Repeat):
            return self._eval_repeat(regex.arg, regex.count, i, j)
        if isinstance(regex, ast.RepeatAtLeast):
            # RepeatAtLeast(r, k) == Concat(Repeat(r, k), KleeneStar(r))
            return any(
                self._eval_repeat(regex.arg, regex.count, i, k)
                and self._eval_star(regex, regex.arg, k, j)
                for k in range(i, j + 1)
            )
        if isinstance(regex, ast.RepeatRange):
            return any(
                self._eval_repeat(regex.arg, k, i, j)
                for k in range(regex.low, regex.high + 1)
            )
        raise TypeError(f"unknown regex node: {regex!r}")

    def _eval_star(self, star_key: ast.Regex, arg: ast.Regex, i: int, j: int) -> bool:
        """Kleene-star evaluation over s[i:j] with non-empty leading pieces."""
        if i == j:
            return True
        key = (id(star_key), i, j, "star")
        cached = self._memo.get(key)  # type: ignore[arg-type]
        if cached is not None:
            return cached
        self._memo[key] = False  # type: ignore[index]
        result = any(
            self._eval(arg, i, k) and self._eval_star(star_key, arg, k, j)
            for k in range(i + 1, j + 1)
        )
        self._memo[key] = result  # type: ignore[index]
        return result

    def _eval_repeat(self, arg: ast.Regex, count: int, i: int, j: int) -> bool:
        """Exactly ``count`` consecutive pieces each matching ``arg`` over s[i:j]."""
        key = (id(arg), i, j, "repeat", count)
        cached = self._memo.get(key)  # type: ignore[arg-type]
        if cached is not None:
            return cached
        if count == 1:
            result = self._eval(arg, i, j)
        else:
            result = any(
                self._eval(arg, i, k) and self._eval_repeat(arg, count - 1, k, j)
                for k in range(i, j + 1)
            )
        self._memo[key] = result  # type: ignore[index]
        return result


def matches(regex: ast.Regex, subject: str) -> bool:
    """Return True iff ``regex`` matches the whole string ``subject``.

    This is the stateless convenience wrapper around :class:`Matcher`; callers
    that evaluate many regexes against the same string should create a
    :class:`Matcher` once and reuse it.
    """
    return Matcher(subject).matches(regex)
