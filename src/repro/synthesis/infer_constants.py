"""Solving for symbolic integers — the ``InferConstants`` procedure (Figure 14).

Given a symbolic regex (no open nodes, at least one symbolic integer), the
procedure enumerates candidate assignments to the symbolic integers using the
length-constraint encoding of Figure 13 and the bounded-integer solver, and
keeps only assignments whose (partially concretised) regexes survive the
approximation-based feasibility check.  The yielded concrete regexes still
have to be validated against the examples by the main loop — the constraint is
an over-approximation, not a proof of consistency.

The enumeration is **incremental**: the constraint ψ0 is compiled once into a
:class:`~repro.solver.solver.SolverInstance`, and the Figure-14 blocking
clauses (``κ != v``) and pins (``κ == v``) travel through the worklist as
assumption literals over that one compiled store — nothing is rebuilt,
re-flattened, or re-decomposed per model.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator, List, Tuple

from repro.solver import Solver
from repro.solver.solver import Literal
from repro.synthesis.approximate import infeasible
from repro.synthesis.config import SynthesisConfig
from repro.synthesis.encode import constraint_for_examples
from repro.synthesis.examples import Examples
from repro.synthesis.partial import (
    PartialRegex,
    POp,
    SymInt,
    is_concrete,
    substitute_symint,
    symints_of,
    walk,
)


def _ints_valid(partial: PartialRegex) -> bool:
    """DSL integer invariants on the concretised values so far.

    The encoding is an over-approximation and κ occurrences under ``Not``
    are not constrained at all, so a model can propose values no DSL
    operator accepts (``Repeat`` counts < 1, ``RepeatRange`` bounds out of
    order).  Such candidates are discarded; their blocking clause still
    advances the enumeration.
    """
    for node in walk(partial):
        if not isinstance(node, POp):
            continue
        ints = [value for value in node.ints if not isinstance(value, SymInt)]
        if any(value < 1 for value in ints):
            return False
        if node.op == "RepeatRange" and len(ints) == 2 and ints[0] > ints[1]:
            return False
    return True


def infer_constants(
    partial: PartialRegex,
    examples: Examples,
    config: SynthesisConfig,
    solver: Solver | None = None,
    deadline: Callable[[], float] | None = None,
) -> Iterator[PartialRegex]:
    """Yield feasible concretisations of a symbolic regex.

    Mirrors Figure 14: a worklist of ``(symbolic regex, assumptions)`` pairs
    is made increasingly concrete one symbolic integer at a time; blocking
    clauses force the solver to produce different values for the chosen
    integer, and partially concretised regexes that the approximation check
    refutes are dropped together with every extension.  The enumeration is
    a generator, so no model is searched for before its caller asks for it.
    ``deadline`` is called when the enumeration starts and each time it
    resumes after a candidate; the ``time.monotonic`` timestamp it returns
    bounds the solver calls until the next candidate, and once it has passed
    the enumeration ends, so a scheduler's time slice bounds even this, the
    engine's most expensive single step.
    """
    limit = deadline() if deadline else None
    solver = solver or Solver()
    formula, domains, kappas = constraint_for_examples(partial, examples, config)
    instance = solver.compile(formula, domains, shared=kappas)
    worklist: List[tuple[PartialRegex, Tuple[Literal, ...]]] = [(partial, ())]
    budget = config.max_models_per_symbolic

    while worklist and budget > 0:
        if limit is not None and time.monotonic() > limit:
            break
        current, assumptions = worklist.pop()
        current_kappas = symints_of(current)
        if not current_kappas:
            continue
        prefer = [kappa.name for kappa in current_kappas]
        try:
            model = instance.solve(assumptions, prefer=prefer, deadline=limit)
        except RuntimeError:
            # Step or deadline budget exceeded: treat as UNSAT for this branch.
            continue
        if model is None:
            continue
        budget -= 1
        kappa = current_kappas[0]
        value = model.get(kappa.name)
        if value is None:
            # The formula does not mention this κ (it can happen that no
            # positive example pins the length of the branch it occurs in),
            # so the model omits it; any in-domain value satisfies the
            # constraint — take the smallest.  The blocking literal below
            # then introduces the variable, so later models enumerate the
            # rest.
            value = domains.get(kappa.name, (1, config.max_kappa))[0]
        concretised = substitute_symint(current, kappa.name, value)

        # Keep exploring other values of this symbolic integer (a blocking
        # clause, as a cheap assumption literal over the compiled store).
        worklist.append((current, assumptions + ((kappa.name, "!=", value),)))

        if not _ints_valid(concretised):
            continue
        if is_concrete(concretised):
            yield concretised
            limit = deadline() if deadline else None
            continue
        if not infeasible(concretised, examples, config):
            worklist.append((concretised, assumptions + ((kappa.name, "==", value),)))
