"""Propagation-based incremental solver for bounded integer constraints.

The public surface is unchanged from the original backtracker —
``Solver.solve(formula, domains, prefer=…, deadline=…)`` returns a model or
None — but the implementation is rebuilt around a compiled constraint store
(:mod:`repro.solver.store`) with interval/bounds propagation
(:mod:`repro.solver.propagate`):

* the formula is compiled **once** into indexed conjuncts with precomputed
  variable sets and connected components (the original backtracker re-ran
  ``var_names`` and union-find at every search node),
* every branching decision first narrows all affected domains to a fixpoint,
  so ``range(lo, hi + 1)`` enumeration only happens inside already-tight
  intervals, with ascending value order (small models first),
* :class:`SolverInstance` exposes an **incremental API** —
  ``solve(assumptions)`` over ``(variable, op, value)`` literals — so the
  Figure-14 enumeration re-solves the same compiled store under cheap
  assumption literals instead of rebuilding a quadratically growing
  conjunction.

Its differential oracle is a brute-force enumeration of every assignment
(``tests/test_solver_incremental.py``).
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.solver import terms as T
from repro.solver.propagate import Conflict, Trail, narrow_to, propagate
from repro.solver.store import (
    CompiledStore,
    Conjunct,
    Interval,
    SolverStats,
    UNKNOWN,
)


#: An assumption literal: ``(variable, op, value)`` with op in {==,!=,<=,>=,<,>}.
Literal = Tuple[str, str, int]

_LITERAL_OPS = frozenset(("==", "!=", "<=", ">=", "<", ">"))


def as_literal(assumption: Literal) -> Literal:
    """Check that ``assumption`` is a ``(variable, op, value)`` literal."""
    if not isinstance(assumption, tuple):
        raise ValueError(f"cannot use {assumption!r} as an assumption literal")
    name, op, value = assumption
    if op not in _LITERAL_OPS:
        raise ValueError(f"unknown assumption operator {op!r}")
    return name, op, value


class SolverInstance:
    """One compiled formula, solvable many times under varying assumptions.

    Created through :meth:`Solver.compile`.  The store (conjunct index,
    components, base domains) is built once; each :meth:`solve` call only
    copies the domain table, applies the assumption literals, and searches
    with propagation.
    """

    def __init__(self, solver: "Solver", store: CompiledStore):
        self._solver = solver
        self.stats = solver.stats
        self._store = store
        #: Assumption-free propagation fixpoint of the store, computed once
        #: and reused by every solve: (domains-at-fixpoint, satisfiable).
        self._fixpoint: Optional[tuple] = None
        # Per-solve state (reset by solve()).
        self._steps = 0
        self._deadline: Optional[float] = None

    # -- solving -------------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[Literal] = (),
        prefer: Optional[Iterable[str]] = None,
        deadline: Optional[float] = None,
    ) -> Optional[Dict[str, int]]:
        """Return a model of store ∧ assumptions, or None if UNSAT.

        The model covers the formula's variables plus any variables mentioned
        only by assumptions; assumption-only variables take the smallest
        value compatible with the literals (their bounds come from the
        ``domains`` mapping given at compile time, when present).
        """
        store = self._store
        if store.unsat:
            return None
        conjuncts, var_index = store.conjuncts, store.var_to_conjuncts
        self._steps = 0
        self._deadline = deadline
        if deadline is not None and time.monotonic() > deadline:
            raise RuntimeError("solver deadline exceeded")

        # Assumption-free fixpoint, computed once per compiled store: every
        # incremental solve starts from already-narrowed domains and only
        # re-propagates what its assumption literals actually touch.
        if self._fixpoint is None:
            fix_domains: Dict[str, Interval] = dict(store.base_domains)
            ok = propagate(
                range(len(conjuncts)), conjuncts, var_index, fix_domains, Trail(), self.stats
            )
            self._fixpoint = (fix_domains, ok)
        fix_domains, ok = self._fixpoint
        if not ok:
            return None

        domains: Dict[str, Interval] = dict(fix_domains)
        excluded: Dict[str, Set[int]] = {}
        extras: List[str] = []
        trail = Trail()
        changed: Set[str] = set()
        try:
            for assumption in assumptions:
                name, op, value = as_literal(assumption)
                if name not in domains:
                    domains[name] = Interval(
                        *store.given_domains.get(name, store.default_domain)
                    )
                    extras.append(name)
                if op == "==":
                    narrow_to(name, value, value, domains, trail, changed)
                elif op == "<=":
                    narrow_to(name, float("-inf"), value, domains, trail, changed)
                elif op == "<":
                    narrow_to(name, float("-inf"), value - 1, domains, trail, changed)
                elif op == ">=":
                    narrow_to(name, value, float("inf"), domains, trail, changed)
                elif op == ">":
                    narrow_to(name, value + 1, float("inf"), domains, trail, changed)
                else:  # "!="
                    excluded.setdefault(name, set()).add(value)
            for name, values in excluded.items():
                iv = domains[name]
                lo, hi = iv.lo, iv.hi
                while lo in values and lo <= hi:
                    lo += 1
                while hi in values and lo <= hi:
                    hi -= 1
                narrow_to(name, lo, hi, domains, trail, changed)
        except Conflict:
            self.stats.conflicts += 1
            return None

        seed = sorted({ci for name in changed for ci in var_index.get(name, ())})
        if seed and not propagate(
            seed, conjuncts, var_index, domains, trail, self.stats
        ):
            return None
        if not self._excluded_ok(domains, excluded):
            self.stats.conflicts += 1
            return None

        order = list(dict.fromkeys([*(prefer or []), *store.shared]))
        order = [name for name in order if name in domains]
        model = self._branch_shared(
            0, order, conjuncts, var_index, store.components, domains, excluded, trail
        )
        if model is None:
            return None
        for name in store.variables:
            if name not in model:
                value = self._pick_value(name, domains, excluded)
                if value is None:
                    return None
                model[name] = value
        for name in extras:
            if name not in model:
                value = self._pick_value(name, domains, excluded)
                if value is None:
                    return None
                model[name] = value
        self.stats.models += 1
        return model

    # -- search --------------------------------------------------------------

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self._solver.max_steps:
            raise RuntimeError("solver step budget exceeded")
        if (
            self._deadline is not None
            and self._steps % 256 == 0
            and time.monotonic() > self._deadline
        ):
            raise RuntimeError("solver deadline exceeded")

    def _pick_value(
        self, name: str, domains: Dict[str, Interval], excluded: Dict[str, Set[int]]
    ) -> Optional[int]:
        iv = domains[name]
        values = excluded.get(name)
        if not values:
            return iv.lo if iv.lo <= iv.hi else None
        for value in range(iv.lo, iv.hi + 1):
            if value not in values:
                return value
        return None

    def _assign(
        self,
        name: str,
        value: int,
        conjuncts: List[Conjunct],
        var_index: Dict[str, Tuple[int, ...]],
        domains: Dict[str, Interval],
        excluded: Dict[str, Set[int]],
        trail: Trail,
    ) -> bool:
        changed: Set[str] = set()
        try:
            narrow_to(name, value, value, domains, trail, changed)
        except Conflict:
            self.stats.conflicts += 1
            return False
        if changed and not propagate(
            var_index.get(name, ()), conjuncts, var_index, domains, trail, self.stats
        ):
            return False
        if not self._excluded_ok(domains, excluded):
            self.stats.conflicts += 1
            return False
        return True

    def _excluded_ok(
        self, domains: Dict[str, Interval], excluded: Dict[str, Set[int]]
    ) -> bool:
        """Propagation may force an excluded value; reject such branches."""
        for name, values in excluded.items():
            iv = domains[name]
            if iv.lo == iv.hi and iv.lo in values:
                return False
        return True

    def _branch_shared(
        self,
        index: int,
        order: List[str],
        conjuncts: List[Conjunct],
        var_index: Dict[str, Tuple[int, ...]],
        components: List[Tuple[Tuple[int, ...], Tuple[str, ...]]],
        domains: Dict[str, Interval],
        excluded: Dict[str, Set[int]],
        trail: Trail,
    ) -> Optional[Dict[str, int]]:
        if index == len(order):
            return self._solve_components(
                conjuncts, var_index, components, domains, excluded, trail
            )
        name = order[index]
        iv = domains[name]
        skip = excluded.get(name, ())
        for value in range(iv.lo, iv.hi + 1):
            if value in skip:
                continue
            self._tick()
            mark = trail.mark()
            if self._assign(name, value, conjuncts, var_index, domains, excluded, trail):
                model = self._branch_shared(
                    index + 1, order, conjuncts, var_index, components, domains, excluded, trail
                )
                if model is not None:
                    return model
            trail.undo_to(mark, domains)
        return None

    def _solve_components(
        self,
        conjuncts: List[Conjunct],
        var_index: Dict[str, Tuple[int, ...]],
        components: List[Tuple[Tuple[int, ...], Tuple[str, ...]]],
        domains: Dict[str, Interval],
        excluded: Dict[str, Set[int]],
        trail: Trail,
    ) -> Optional[Dict[str, int]]:
        model: Dict[str, int] = {}
        for conjunct_ids, names in components:
            mark = trail.mark()
            sub = self._branch_component(
                conjunct_ids, names, conjuncts, var_index, domains, excluded, trail
            )
            trail.undo_to(mark, domains)
            if sub is None:
                return None
            model.update(sub)
        return model

    def _branch_component(
        self,
        conjunct_ids: Tuple[int, ...],
        names: Tuple[str, ...],
        conjuncts: List[Conjunct],
        var_index: Dict[str, Tuple[int, ...]],
        domains: Dict[str, Interval],
        excluded: Dict[str, Set[int]],
        trail: Trail,
    ) -> Optional[Dict[str, int]]:
        status = True
        for ci in conjunct_ids:
            value = conjuncts[ci].evaluate(domains)
            if value is False:
                return None
            if value is UNKNOWN:
                status = UNKNOWN
        if status is True:
            # Every remaining combination satisfies the component; take the
            # smallest value of each variable.
            sub: Dict[str, int] = {}
            for name in names:
                picked = self._pick_value(name, domains, excluded)
                if picked is None:
                    return None
                sub[name] = picked
            return sub
        target = next(
            (name for name in names if domains[name].lo != domains[name].hi), None
        )
        if target is None:
            return None
        iv = domains[target]
        skip = excluded.get(target, ())
        for value in range(iv.lo, iv.hi + 1):
            if value in skip:
                continue
            self._tick()
            mark = trail.mark()
            if self._assign(target, value, conjuncts, var_index, domains, excluded, trail):
                sub = self._branch_component(
                    conjunct_ids, names, conjuncts, var_index, domains, excluded, trail
                )
                if sub is not None:
                    return sub
            trail.undo_to(mark, domains)
        return None


class Solver:
    """Finite-domain solver for the formula language of :mod:`repro.solver.terms`."""

    def __init__(self, max_steps: int = 2_000_000):
        self.max_steps = max_steps
        #: Propagation/conflict/model counters, accumulated across all
        #: instances compiled by this solver (the engine reads deltas).
        self.stats = SolverStats()

    def compile(
        self,
        formula: T.Formula,
        domains: Dict[str, Tuple[int, int]],
        shared: Iterable[str] = (),
    ) -> SolverInstance:
        """Compile ``formula`` once for repeated solving under assumptions.

        ``shared`` names the variables that couple otherwise-independent
        parts of the formula (the symbolic integers κ); the store's
        connected components are computed once with them removed.
        """
        return SolverInstance(self, CompiledStore(formula, domains, shared=shared))

    def solve(
        self,
        formula: T.Formula,
        domains: Dict[str, Tuple[int, int]],
        prefer: Optional[Iterable[str]] = None,
        deadline: Optional[float] = None,
    ) -> Optional[Dict[str, int]]:
        """Return a model (full assignment) of ``formula`` or None if UNSAT.

        ``domains`` maps every variable to an inclusive ``(lo, hi)`` range;
        variables appearing in the formula but not in ``domains`` get the
        widest range seen (a defensive default).  ``prefer`` lists variables
        to branch on first (the symbolic integers of the regex), which both
        finds "small" models first and enables component decomposition for
        the rest.  ``deadline`` (a ``time.monotonic`` timestamp) aborts the
        search with :class:`RuntimeError`, like the step budget — it is what
        keeps a single solver call from blowing through a scheduler's time
        slice.
        """
        prefer = tuple(prefer or ())
        instance = self.compile(formula, domains, shared=prefer)
        return instance.solve((), prefer=prefer, deadline=deadline)
