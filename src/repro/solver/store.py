"""Compiled constraint store: a ``T.Formula`` indexed once for many solves.

The Figure-14 loop solves the *same* conjunction over and over, each time
with one more blocking clause.  The original backtracker re-derived everything —
variable sets, connected components, sub-term intervals — at every search
node of every solve.  :func:`compile_store` does that work exactly once:

* the formula is flattened (``Exists`` dropped, negation pushed to the atoms)
  into a list of **conjuncts** — linear atoms over integer monomials, or
  disjunctive groups thereof,
* every conjunct carries its precomputed variable tuple, and a
  variable→conjunct index supports propagation worklists,
* the conjunct graph's **connected components** are computed once, with the
  *shared* variables (the symbolic integers ``κ``, branched first) removed —
  after the shared variables are fixed, each component (in practice: one per
  positive example) is an independent subproblem.

The store itself is immutable per frame; all per-solve state (interval
domains, trails) lives in :mod:`repro.solver.solver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.solver import terms as T


#: Three-valued logic "don't know yet" marker.
UNKNOWN = object()


@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[lo, hi]`` (possibly empty if lo > hi)."""

    lo: int
    hi: int

    def is_empty(self) -> bool:
        return self.lo > self.hi

    def __contains__(self, value: int) -> bool:
        return self.lo <= value <= self.hi


def _interval_add(a: Interval, b: Interval) -> Interval:
    return Interval(a.lo + b.lo, a.hi + b.hi)


def _interval_mul(a: Interval, b: Interval) -> Interval:
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return Interval(min(products), max(products))


def _term_interval(
    term: T.Term, assignment: Dict[str, int], domains: Dict[str, Interval]
) -> Interval:
    if isinstance(term, T.Const):
        return Interval(term.value, term.value)
    if isinstance(term, T.Var):
        if term.name in assignment:
            value = assignment[term.name]
            return Interval(value, value)
        return domains.get(term.name, Interval(0, 10**9))
    if isinstance(term, T.Add):
        result = Interval(0, 0)
        for sub in term.terms:
            result = _interval_add(result, _term_interval(sub, assignment, domains))
        return result
    if isinstance(term, T.Mul):
        result = Interval(1, 1)
        for sub in term.terms:
            result = _interval_mul(result, _term_interval(sub, assignment, domains))
        return result
    raise TypeError(f"unknown term: {term!r}")


def _compare(op: str, lhs: Interval, rhs: Interval):
    """Three-valued comparison of two intervals."""
    if op == "<=":
        if lhs.hi <= rhs.lo:
            return True
        if lhs.lo > rhs.hi:
            return False
        return UNKNOWN
    if op == "<":
        if lhs.hi < rhs.lo:
            return True
        if lhs.lo >= rhs.hi:
            return False
        return UNKNOWN
    if op == ">=":
        return _compare("<=", rhs, lhs)
    if op == ">":
        return _compare("<", rhs, lhs)
    if op == "==":
        if lhs.lo == lhs.hi == rhs.lo == rhs.hi:
            return True
        if lhs.hi < rhs.lo or lhs.lo > rhs.hi:
            return False
        return UNKNOWN
    if op == "!=":
        result = _compare("==", lhs, rhs)
        if result is UNKNOWN:
            return UNKNOWN
        return not result
    raise ValueError(f"unknown comparison operator {op!r}")


def _evaluate(
    formula: T.Formula, assignment: Dict[str, int], domains: Dict[str, Interval]
):
    """Three-valued evaluation of a formula under a partial assignment."""
    if isinstance(formula, T.BoolConst):
        return formula.value
    if isinstance(formula, T.Cmp):
        return _compare(
            formula.op,
            _term_interval(formula.lhs, assignment, domains),
            _term_interval(formula.rhs, assignment, domains),
        )
    if isinstance(formula, T.AndF):
        result = True
        for part in formula.parts:
            value = _evaluate(part, assignment, domains)
            if value is False:
                return False
            if value is UNKNOWN:
                result = UNKNOWN
        return result
    if isinstance(formula, T.OrF):
        result = False
        for part in formula.parts:
            value = _evaluate(part, assignment, domains)
            if value is True:
                return True
            if value is UNKNOWN:
                result = UNKNOWN
        return result
    if isinstance(formula, T.NotF):
        value = _evaluate(formula.arg, assignment, domains)
        if value is UNKNOWN:
            return UNKNOWN
        return not value
    if isinstance(formula, T.Exists):
        return _evaluate(formula.body, assignment, domains)
    raise TypeError(f"unknown formula: {formula!r}")


NEG_INF = float("-inf")
POS_INF = float("inf")

#: Negation of each comparison operator (strictness flips around equality).
NEGATED_OP = {"<=": ">", "<": ">=", ">=": "<", ">": "<=", "==": "!=", "!=": "=="}


@dataclass
class SolverStats:
    """Counters accumulated across every solve of a :class:`~repro.solver.solver.Solver`."""

    #: Conjunct revisions that narrowed at least one variable domain.
    propagations: int = 0
    #: Domain wipe-outs detected during propagation (dead branches cut early).
    conflicts: int = 0
    #: Models returned (successful solves).
    models: int = 0


# ---------------------------------------------------------------------------
# Polynomial normalisation
# ---------------------------------------------------------------------------

Monomial = Tuple[int, Tuple[str, ...]]


def _term_poly(term: T.Term) -> Dict[Tuple[str, ...], int]:
    """Expand a term into ``{sorted-var-tuple: coefficient}`` monomials."""
    if isinstance(term, T.Const):
        return {(): term.value}
    if isinstance(term, T.Var):
        return {(term.name,): 1}
    if isinstance(term, T.Add):
        out: Dict[Tuple[str, ...], int] = {}
        for sub in term.terms:
            for names, coef in _term_poly(sub).items():
                out[names] = out.get(names, 0) + coef
        return out
    if isinstance(term, T.Mul):
        acc: Dict[Tuple[str, ...], int] = {(): 1}
        for sub in term.terms:
            sub_poly = _term_poly(sub)
            nxt: Dict[Tuple[str, ...], int] = {}
            for names_a, coef_a in acc.items():
                for names_b, coef_b in sub_poly.items():
                    key = tuple(sorted(names_a + names_b))
                    nxt[key] = nxt.get(key, 0) + coef_a * coef_b
            acc = nxt
        return acc
    raise TypeError(f"unknown term: {term!r}")


def _monomial_interval(
    coef: int, names: Tuple[str, ...], domains: Dict[str, Interval]
) -> Tuple[int, int]:
    """Interval of ``coef * Π names`` under the current domains."""
    lo, hi = 1, 1
    for name in names:
        iv = domains[name]
        products = (lo * iv.lo, lo * iv.hi, hi * iv.lo, hi * iv.hi)
        lo, hi = min(products), max(products)
    if coef >= 0:
        return coef * lo, coef * hi
    return coef * hi, coef * lo


@dataclass(frozen=True)
class LinearAtom:
    """``lo <= Σ monomials <= hi`` (or ``Σ monomials != neq``) over integers.

    A comparison atom ``lhs op rhs`` is normalised by moving everything to one
    side; strict inequalities become non-strict by integrality.  ``!=`` atoms
    (from negated blocking clauses) carry the forbidden value in ``neq``.
    """

    monomials: Tuple[Monomial, ...]
    lo: float  # int or -inf
    hi: float  # int or +inf
    neq: Optional[int] = None
    vars: Tuple[str, ...] = ()

    def interval(self, domains: Dict[str, Interval]) -> Tuple[int, int]:
        lo = hi = 0
        for coef, names in self.monomials:
            mlo, mhi = _monomial_interval(coef, names, domains)
            lo += mlo
            hi += mhi
        return lo, hi

    def evaluate(self, domains: Dict[str, Interval]):
        """Three-valued truth under interval domains."""
        plo, phi = self.interval(domains)
        if self.neq is not None:
            if plo == phi == self.neq:
                return False
            if self.neq < plo or self.neq > phi:
                return True
            return UNKNOWN
        if self.lo <= plo and phi <= self.hi:
            return True
        if phi < self.lo or plo > self.hi:
            return False
        return UNKNOWN


def atom_of_cmp(cmp: T.Cmp, negate: bool = False) -> LinearAtom:
    """Normalise ``lhs op rhs`` (or its negation) into a :class:`LinearAtom`."""
    op = NEGATED_OP[cmp.op] if negate else cmp.op
    poly = _term_poly(cmp.lhs)
    for names, coef in _term_poly(cmp.rhs).items():
        poly[names] = poly.get(names, 0) - coef
    const = poly.pop((), 0)
    monomials = tuple(
        (coef, names) for names, coef in sorted(poly.items()) if coef != 0
    )
    names = tuple(sorted({name for _, mono in monomials for name in mono}))
    if op == "<=":
        lo, hi = NEG_INF, -const
    elif op == "<":
        lo, hi = NEG_INF, -const - 1
    elif op == ">=":
        lo, hi = -const, POS_INF
    elif op == ">":
        lo, hi = -const + 1, POS_INF
    elif op == "==":
        lo, hi = -const, -const
    elif op == "!=":
        return LinearAtom(monomials, NEG_INF, POS_INF, neq=-const, vars=names)
    else:  # pragma: no cover - Cmp validates its operator
        raise ValueError(f"unknown comparison operator {op!r}")
    return LinearAtom(monomials, lo, hi, vars=names)


# ---------------------------------------------------------------------------
# Conjuncts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrPart:
    """One disjunct of an :class:`OrGroup`: a conjunction of linear atoms, or
    an arbitrary residual formula (evaluated three-valued, never narrowed)."""

    atoms: Optional[Tuple[LinearAtom, ...]]
    residual: Optional[T.Formula]
    vars: Tuple[str, ...]

    def evaluate(self, domains: Dict[str, Interval]):
        if self.atoms is not None:
            result = True
            for atom in self.atoms:
                value = atom.evaluate(domains)
                if value is False:
                    return False
                if value is UNKNOWN:
                    result = UNKNOWN
            return result
        return _evaluate(self.residual, {}, domains)


@dataclass(frozen=True)
class Conjunct:
    """One top-level conjunct: a single linear atom or a disjunctive group."""

    atom: Optional[LinearAtom]
    parts: Optional[Tuple[OrPart, ...]]
    vars: Tuple[str, ...]

    def evaluate(self, domains: Dict[str, Interval]):
        if self.atom is not None:
            return self.atom.evaluate(domains)
        result = False
        for part in self.parts:
            value = part.evaluate(domains)
            if value is True:
                return True
            if value is UNKNOWN:
                result = UNKNOWN
        return result


class UnsatStore(Exception):
    """Raised by compilation when the formula is trivially FALSE."""


def _strip_exists(formula: T.Formula) -> T.Formula:
    if isinstance(formula, T.Exists):
        return _strip_exists(formula.body)
    return formula


def _nnf_conjuncts(formula: T.Formula, negate: bool, out: List[T.Formula]) -> None:
    """Append the NNF conjuncts of ``formula`` (under optional negation)."""
    formula = _strip_exists(formula)
    if isinstance(formula, T.BoolConst):
        if formula.value == negate:  # FALSE conjunct
            raise UnsatStore()
        return
    if isinstance(formula, T.NotF):
        _nnf_conjuncts(formula.arg, not negate, out)
        return
    if isinstance(formula, T.Cmp):
        out.append(_negate_cmp(formula) if negate else formula)
        return
    if isinstance(formula, T.AndF) and not negate:
        for part in formula.parts:
            _nnf_conjuncts(part, False, out)
        return
    if isinstance(formula, T.OrF) and negate:
        for part in formula.parts:
            _nnf_conjuncts(part, True, out)
        return
    # A disjunction (or negated conjunction): one conjunct, NNF'd inside.
    parts = formula.parts if isinstance(formula, (T.AndF, T.OrF)) else (formula,)
    nnf_parts = []
    for part in parts:
        nnf_parts.append(_nnf(part, negate))
    out.append(T.disjoin(nnf_parts))


def _negate_cmp(cmp: T.Cmp) -> T.Cmp:
    return T.Cmp(NEGATED_OP[cmp.op], cmp.lhs, cmp.rhs)


def _nnf(formula: T.Formula, negate: bool) -> T.Formula:
    formula = _strip_exists(formula)
    if isinstance(formula, T.BoolConst):
        return T.BoolConst(formula.value != negate)
    if isinstance(formula, T.NotF):
        return _nnf(formula.arg, not negate)
    if isinstance(formula, T.Cmp):
        return _negate_cmp(formula) if negate else formula
    if isinstance(formula, T.AndF):
        parts = [_nnf(part, negate) for part in formula.parts]
        return T.disjoin(parts) if negate else T.conjoin(parts)
    if isinstance(formula, T.OrF):
        parts = [_nnf(part, negate) for part in formula.parts]
        return T.conjoin(parts) if negate else T.disjoin(parts)
    raise TypeError(f"unknown formula: {formula!r}")


def _compile_part(formula: T.Formula) -> OrPart:
    """Compile one disjunct; falls back to a residual formula when not a
    conjunction of comparison atoms."""
    atoms: List[LinearAtom] = []
    stack = [formula]
    linear = True
    while stack:
        node = stack.pop()
        node = _strip_exists(node)
        if isinstance(node, T.Cmp):
            atoms.append(atom_of_cmp(node))
        elif isinstance(node, T.AndF):
            stack.extend(node.parts)
        elif isinstance(node, T.BoolConst) and node.value:
            continue
        else:
            linear = False
            break
    names = tuple(sorted(T.var_names(formula)))
    if linear:
        return OrPart(atoms=tuple(atoms), residual=None, vars=names)
    return OrPart(atoms=None, residual=formula, vars=names)


def compile_conjunct(formula: T.Formula) -> Optional[Conjunct]:
    """Compile one NNF conjunct; None for a trivially-true conjunct."""
    formula = _strip_exists(formula)
    if isinstance(formula, T.BoolConst):
        if not formula.value:
            raise UnsatStore()
        return None
    if isinstance(formula, T.Cmp):
        atom = atom_of_cmp(formula)
        return Conjunct(atom=atom, parts=None, vars=atom.vars)
    if isinstance(formula, T.OrF):
        parts = tuple(_compile_part(part) for part in formula.parts)
        names = tuple(sorted({name for part in parts for name in part.vars}))
        return Conjunct(atom=None, parts=parts, vars=names)
    # NNF leaves only Cmp / Or / BoolConst at conjunct level, but be defensive:
    part = _compile_part(formula)
    return Conjunct(atom=None, parts=(part,), vars=part.vars)


# ---------------------------------------------------------------------------
# Indexes shared by the store and the incremental frames
# ---------------------------------------------------------------------------

def build_var_index(conjuncts: Sequence[Conjunct]) -> Dict[str, Tuple[int, ...]]:
    """Variable → indices of the conjuncts that mention it."""
    index: Dict[str, List[int]] = {}
    for ci, conjunct in enumerate(conjuncts):
        for name in conjunct.vars:
            index.setdefault(name, []).append(ci)
    return {name: tuple(cis) for name, cis in index.items()}


def compute_components(
    conjuncts: Sequence[Conjunct], shared: set
) -> List[Tuple[Tuple[int, ...], Tuple[str, ...]]]:
    """Union-find over the conjunct graph, ignoring shared variables.

    Returns ``[(conjunct indices, variables)]``; conjuncts mentioning only
    shared variables belong to no component (they are checked while the
    shared variables are branched).  Computed once per compile — the original
    backtracker re-ran this at every search node.
    """
    count = len(conjuncts)
    parent = list(range(count))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: Dict[str, int] = {}
    conjunct_vars: List[List[str]] = []
    for ci, conjunct in enumerate(conjuncts):
        local = [name for name in conjunct.vars if name not in shared]
        conjunct_vars.append(local)
        for name in local:
            if name in owner:
                parent[find(ci)] = find(owner[name])
            else:
                owner[name] = ci

    groups: Dict[int, List[int]] = {}
    for ci in range(count):
        if conjunct_vars[ci]:
            groups.setdefault(find(ci), []).append(ci)
    components = []
    for indices in groups.values():
        names = sorted({name for ci in indices for name in conjunct_vars[ci]})
        components.append((tuple(indices), tuple(names)))
    components.sort(key=lambda entry: entry[0][0])
    return components


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

class CompiledStore:
    """Indexed conjuncts + base domains + once-per-formula decomposition."""

    def __init__(
        self,
        formula: T.Formula,
        domains: Dict[str, Tuple[int, int]],
        shared: Iterable[str] = (),
    ):
        self.shared: tuple[str, ...] = tuple(sorted(set(shared)))
        formula_vars: set = set()
        try:
            parts: List[T.Formula] = []
            _nnf_conjuncts(formula, False, parts)
            self.unsat = False
            self.conjuncts: List[Conjunct] = []
            for part in parts:
                # Collect variables from the *formulas*, not the compiled
                # atoms: normalisation drops cancelled monomials (x == x), but
                # the model contract is a full assignment over every variable
                # the formula mentions.
                formula_vars |= T.var_names(part)
                conjunct = compile_conjunct(part)
                if conjunct is not None:
                    self.conjuncts.append(conjunct)
        except UnsatStore:
            self.unsat = True
            self.conjuncts = []
            formula_vars = set()

        names = sorted(formula_vars)
        self.variables: tuple[str, ...] = tuple(names)
        default_hi = max((hi for _, hi in domains.values()), default=30)
        self.default_domain = (0, default_hi)
        self.given_domains: Dict[str, Tuple[int, int]] = dict(domains)
        self.base_domains: Dict[str, Interval] = {
            name: Interval(*domains.get(name, self.default_domain)) for name in names
        }
        self.var_to_conjuncts = build_var_index(self.conjuncts)
        self.components = compute_components(self.conjuncts, set(self.shared))
