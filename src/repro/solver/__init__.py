"""Bounded-integer constraint solver (the reproduction's Z3 substitute).

The paper feeds the length constraints of Figure 13 to the Z3 SMT solver to
prune symbolic regexes and to enumerate candidate values for symbolic
integers.  Those constraints live in a small fragment: conjunctions and
disjunctions of (in)equalities over non-negative bounded integers, with
bilinear products introduced by the ``Repeat`` family.  This package
implements a complete solver for exactly that fragment:

* :mod:`repro.solver.terms` — the term/formula AST (variables, constants,
  sums, products, comparisons, boolean connectives, existential quantifiers),
* :mod:`repro.solver.store` — a formula compiled once into an indexed
  constraint store: flattened conjuncts, per-conjunct variable sets, a
  variable→conjunct index, and connected components (with the shared
  symbolic integers removed) computed once per formula,
* :mod:`repro.solver.propagate` — interval/bounds propagation to fixpoint
  (HC4-style narrowing through sums and products, constructive disjunction),
* :mod:`repro.solver.solver` — the :class:`Solver` facade plus the
  incremental :class:`SolverInstance` (``solve(assumptions)``), which is
  what the ``InferConstants`` loop (Figure 14) uses so blocking clauses are
  assumption literals over the already-compiled store.
"""

from repro.solver.terms import (
    Term,
    Const,
    Var,
    Add,
    Mul,
    Cmp,
    BoolConst,
    AndF,
    OrF,
    NotF,
    Exists,
    Formula,
    TRUE,
    FALSE,
    conjoin,
    disjoin,
    var_names,
)
from repro.solver.solver import Solver, SolverInstance
from repro.solver.store import CompiledStore, Interval, SolverStats, UNKNOWN

__all__ = [
    "Term",
    "Const",
    "Var",
    "Add",
    "Mul",
    "Cmp",
    "BoolConst",
    "AndF",
    "OrF",
    "NotF",
    "Exists",
    "Formula",
    "TRUE",
    "FALSE",
    "conjoin",
    "disjoin",
    "var_names",
    "Solver",
    "SolverInstance",
    "CompiledStore",
    "SolverStats",
    "Interval",
    "UNKNOWN",
]
