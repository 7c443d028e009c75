"""Deterministic finite automata over minterm symbols.

DFAs here are *complete*: every state has a transition on every symbol (a
dead/sink state absorbs the rest).  This makes complement a matter of flipping
accepting states and keeps product constructions simple.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple


class DFA:
    """A complete DFA over symbols ``0 .. num_symbols-1``."""

    def __init__(
        self,
        num_symbols: int,
        transitions: List[List[int]],
        start: int,
        accepting: Set[int],
    ):
        self.num_symbols = num_symbols
        self.transitions = transitions
        self.start = start
        self.accepting = set(accepting)

    @property
    def num_states(self) -> int:
        return len(self.transitions)

    # -- evaluation ---------------------------------------------------------

    def accepts_symbols(self, symbols: Iterable[int]) -> bool:
        state = self.start
        for symbol in symbols:
            state = self.transitions[state][symbol]
        return state in self.accepting

    # -- boolean operations -------------------------------------------------

    def complement(self) -> "DFA":
        accepting = {s for s in range(self.num_states) if s not in self.accepting}
        return DFA(self.num_symbols, [row[:] for row in self.transitions], self.start, accepting)

    def product(self, other: "DFA", combine: Callable[[bool, bool], bool]) -> "DFA":
        """Product construction; ``combine`` decides acceptance of a pair."""
        if self.num_symbols != other.num_symbols:
            raise ValueError("product requires DFAs over the same alphabet")
        index: Dict[Tuple[int, int], int] = {}
        transitions: List[List[int]] = []
        accepting: Set[int] = set()
        start_pair = (self.start, other.start)
        index[start_pair] = 0
        transitions.append([-1] * self.num_symbols)
        queue = deque([start_pair])
        while queue:
            pair = queue.popleft()
            state_id = index[pair]
            a, b = pair
            if combine(a in self.accepting, b in other.accepting):
                accepting.add(state_id)
            for symbol in range(self.num_symbols):
                target = (self.transitions[a][symbol], other.transitions[b][symbol])
                target_id = index.get(target)
                if target_id is None:
                    target_id = len(index)
                    index[target] = target_id
                    transitions.append([-1] * self.num_symbols)
                    queue.append(target)
                transitions[state_id][symbol] = target_id
        return DFA(self.num_symbols, transitions, 0, accepting)

    def intersect(self, other: "DFA") -> "DFA":
        return self.product(other, lambda a, b: a and b)

    def union(self, other: "DFA") -> "DFA":
        return self.product(other, lambda a, b: a or b)

    def difference(self, other: "DFA") -> "DFA":
        return self.product(other, lambda a, b: a and not b)

    def symmetric_difference(self, other: "DFA") -> "DFA":
        return self.product(other, lambda a, b: a != b)

    # -- language queries ---------------------------------------------------

    def is_empty(self) -> bool:
        """True iff the automaton accepts no string."""
        return self.shortest_accepted() is None

    def shortest_accepted(self) -> Optional[List[int]]:
        """A shortest accepted symbol sequence, or None if the language is empty."""
        if self.start in self.accepting:
            return []
        visited = {self.start}
        queue: deque[Tuple[int, Tuple[int, ...]]] = deque([(self.start, ())])
        while queue:
            state, path = queue.popleft()
            for symbol in range(self.num_symbols):
                target = self.transitions[state][symbol]
                if target in visited:
                    continue
                new_path = path + (symbol,)
                if target in self.accepting:
                    return list(new_path)
                visited.add(target)
                queue.append((target, new_path))
        return None

    def live_states(self) -> Set[int]:
        """States from which an accepting state is reachable."""
        reverse: Dict[int, Set[int]] = {}
        for state, row in enumerate(self.transitions):
            for target in row:
                reverse.setdefault(target, set()).add(state)
        live = set(self.accepting)
        queue = deque(self.accepting)
        while queue:
            state = queue.popleft()
            for prev in reverse.get(state, ()):
                if prev not in live:
                    live.add(prev)
                    queue.append(prev)
        return live

    # -- minimisation -------------------------------------------------------

    def minimize(self) -> "DFA":
        """Hopcroft minimisation (on reachable states)."""
        reachable = self._reachable_states()
        states = sorted(reachable)
        remap = {state: i for i, state in enumerate(states)}
        transitions = [
            [remap[self.transitions[state][symbol]] for symbol in range(self.num_symbols)]
            for state in states
        ]
        accepting = {remap[s] for s in self.accepting if s in reachable}
        n = len(states)

        accepting_block = frozenset(accepting)
        rest_block = frozenset(set(range(n)) - accepting)
        partition: Set[frozenset] = {b for b in (accepting_block, rest_block) if b}
        worklist: Set[frozenset] = set(partition)

        # Precompute reverse transitions per symbol.
        reverse: List[Dict[int, Set[int]]] = [dict() for _ in range(self.num_symbols)]
        for state in range(n):
            for symbol in range(self.num_symbols):
                reverse[symbol].setdefault(transitions[state][symbol], set()).add(state)

        while worklist:
            splitter = worklist.pop()
            for symbol in range(self.num_symbols):
                predecessors: Set[int] = set()
                for target in splitter:
                    predecessors |= reverse[symbol].get(target, set())
                if not predecessors:
                    continue
                new_partition: Set[frozenset] = set()
                for block in partition:
                    inside = block & predecessors
                    outside = block - predecessors
                    if inside and outside:
                        new_partition.add(frozenset(inside))
                        new_partition.add(frozenset(outside))
                        if block in worklist:
                            worklist.discard(block)
                            worklist.add(frozenset(inside))
                            worklist.add(frozenset(outside))
                        else:
                            worklist.add(
                                frozenset(inside) if len(inside) <= len(outside) else frozenset(outside)
                            )
                    else:
                        new_partition.add(block)
                partition = new_partition

        block_of: Dict[int, int] = {}
        blocks = sorted(partition, key=lambda b: min(b))
        for block_id, block in enumerate(blocks):
            for state in block:
                block_of[state] = block_id
        new_transitions = []
        for block in blocks:
            representative = min(block)
            new_transitions.append(
                [block_of[transitions[representative][symbol]] for symbol in range(self.num_symbols)]
            )
        new_accepting = {block_of[s] for s in accepting}
        return DFA(self.num_symbols, new_transitions, block_of[remap[self.start]], new_accepting)

    def _reachable_states(self) -> Set[int]:
        seen = {self.start}
        queue = deque([self.start])
        while queue:
            state = queue.popleft()
            for target in self.transitions[state]:
                if target not in seen:
                    seen.add(target)
                    queue.append(target)
        return seen

    def equivalent(self, other: "DFA") -> bool:
        """Language equivalence via emptiness of the symmetric difference."""
        return self.symmetric_difference(other).is_empty()
