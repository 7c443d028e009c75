"""End-to-end tests for the PBE engine: encoding, InferConstants, and search."""

import time

from repro.dsl import (
    Concat,
    LET,
    NUM,
    Optional,
    Repeat,
    RepeatRange,
    literal,
    matches,
    parse_regex,
)
from repro.sketch import concrete, hole, parse_sketch
from repro.solver import Solver
from repro.solver.solver import SolverInstance
from repro.synthesis import (
    EngineVariant,
    Examples,
    PLeaf,
    POp,
    SymInt,
    SynthesisConfig,
    constraint_for_examples,
    infer_constants,
    synthesize,
)
from repro.solver.terms import substitute, var_names

#: Section 2's motivating example: decimal(18,3).
SECTION2_POSITIVES = ["123456789.123", "123456789123456.12", "12345.1", "123456789123456"]
SECTION2_NEGATIVES = ["1234567891234567", "123.1234", "1.12345", ".1234"]
#: Wall-clock ceiling on top of the exact work-unit pins below: loose enough
#: for a shared CI runner, tight enough to catch a slowdown of several times.
SECONDS_CEILING = 1.0


class TestEncoding:
    def test_example_4_5_constraint(self):
        """The symbolic regex of Example 4.5 admits k1 + k2 <= 7 for example '12345.1'."""
        partial = POp(
            "Concat",
            (
                POp("Repeat", (PLeaf(parse_regex("Or(<.>,<num>)")),), (SymInt("k1"),)),
                POp(
                    "RepeatAtLeast",
                    (PLeaf(RepeatRange(NUM, 1, 3)),),
                    (SymInt("k2"),),
                ),
            ),
        )
        examples = Examples(["12345.1"], [])
        config = SynthesisConfig(max_kappa=30)
        formula, domains, kappas = constraint_for_examples(partial, examples, config)
        assert kappas == {"k1", "k2"}
        solver = Solver()
        # k1 = k2 = 1 is allowed; k1 = 7, k2 = 1 is allowed; k1 + k2 > 7 is not.
        assert solver.solve(
            substitute(formula, {"k1": 1, "k2": 1}),
            {name: domains[name] for name in var_names(formula)},
        ) is not None
        assert solver.solve(
            substitute(formula, {"k1": 7, "k2": 2}),
            {name: domains[name] for name in var_names(formula)},
        ) is None

    def test_constraint_respects_all_positive_examples(self):
        partial = POp("RepeatAtLeast", (PLeaf(NUM),), (SymInt("k1"),))
        examples = Examples(["123", "12345"], [])
        config = SynthesisConfig()
        formula, domains, _ = constraint_for_examples(partial, examples, config)
        solver = Solver()
        # RepeatAtLeast(<num>, k) requires k <= len(s) for every positive
        # example, so the shortest example (length 3) bounds k.
        assert solver.solve(substitute(formula, {"k1": 3}), domains) is not None
        assert solver.solve(substitute(formula, {"k1": 4}), domains) is None

    def test_exact_repeat_conflicting_lengths_unsat(self):
        partial = POp("Repeat", (PLeaf(NUM),), (SymInt("k1"),))
        examples = Examples(["123", "12345"], [])
        formula, domains, _ = constraint_for_examples(partial, examples, SynthesisConfig())
        # No single exact repeat count matches strings of length 3 and 5.
        assert Solver().solve(formula, domains, prefer=["k1"]) is None


class TestInferConstants:
    def test_infers_exact_repeat_count(self):
        partial = POp("Repeat", (PLeaf(NUM),), (SymInt("k1"),))
        examples = Examples(["1234"], ["123"])
        config = SynthesisConfig()
        candidates = list(infer_constants(partial, examples, config))
        assert any(
            examples.consistent(_to_regex(c)) for c in candidates
        ), "expected Repeat(<num>,4) among the candidates"

    def test_prunes_against_negative_examples(self):
        partial = POp(
            "Concat",
            (
                POp("RepeatRange", (PLeaf(NUM),), (1, SymInt("k1"))),
                PLeaf(Optional(Concat(literal("."), RepeatRange(NUM, 1, 3)))),
            ),
        )
        examples = Examples(
            ["123456789.123", "12345.1", "123456789123456"],
            ["1234567891234567"],
        )
        config = SynthesisConfig(max_kappa=20)
        candidates = list(infer_constants(partial, examples, config))
        consistent = [c for c in candidates if examples.consistent(_to_regex(c))]
        assert consistent, "expected a consistent completion with k1 = 15"
        assert any(_to_regex(c) == parse_regex(
            "Concat(RepeatRange(<num>,1,15),Optional(Concat(<.>,RepeatRange(<num>,1,3))))"
        ) for c in consistent)

    def test_section2_candidates_are_pinned(self):
        """One symbolic integer (Figure 14): exactly 7 candidates."""
        partial = POp(
            "Concat",
            (
                POp("RepeatRange", (PLeaf(NUM),), (1, SymInt("k1"))),
                PLeaf(Optional(Concat(literal("."), RepeatRange(NUM, 1, 3)))),
            ),
        )
        examples = Examples(SECTION2_POSITIVES, SECTION2_NEGATIVES)
        start = time.perf_counter()
        candidates = list(infer_constants(partial, examples, SynthesisConfig(hole_depth=2)))
        assert time.perf_counter() - start < SECONDS_CEILING
        assert len(candidates) == 7

    def test_three_symbolic_integers_candidates_are_pinned(self):
        """Blocking clauses over three κ at once: exactly 3 candidates."""
        partial = POp(
            "Concat",
            (
                POp("Repeat", (PLeaf(NUM),), (SymInt("k1"),)),
                POp(
                    "Concat",
                    (
                        PLeaf(literal("-")),
                        POp(
                            "Concat",
                            (
                                POp("RepeatRange", (PLeaf(LET),), (1, SymInt("k2"))),
                                POp("RepeatAtLeast", (PLeaf(NUM),), (SymInt("k3"),)),
                            ),
                        ),
                    ),
                ),
            ),
        )
        examples = Examples(["12-ab12", "12-abc1", "12-a123"], ["1-ab12", "12-123", "12-abcd"])
        config = SynthesisConfig(hole_depth=2, max_kappa=8, max_models_per_symbolic=8)
        start = time.perf_counter()
        candidates = list(infer_constants(partial, examples, config))
        assert time.perf_counter() - start < SECONDS_CEILING
        assert len(candidates) == 3


    def test_first_candidate_needs_fewer_solves_than_all(self, monkeypatch):
        """The enumeration is a generator: no model is searched for before it is asked for."""
        solves = []
        solve = SolverInstance.solve

        def counted(instance, *args, **kwargs):
            solves.append(args)
            return solve(instance, *args, **kwargs)

        monkeypatch.setattr(SolverInstance, "solve", counted)
        partial = POp(
            "Concat",
            (
                POp("RepeatRange", (PLeaf(NUM),), (1, SymInt("k1"))),
                PLeaf(Optional(Concat(literal("."), RepeatRange(NUM, 1, 3)))),
            ),
        )
        examples = Examples(SECTION2_POSITIVES, SECTION2_NEGATIVES)
        config = SynthesisConfig(hole_depth=2)
        first = next(infer_constants(partial, examples, config))
        first_solves = len(solves)
        del solves[:]
        candidates = list(infer_constants(partial, examples, config))
        assert candidates[0] is first
        assert 0 < first_solves < len(solves)


def _to_regex(partial):
    from repro.synthesis import to_regex

    return to_regex(partial)


class TestSynthesizer:
    def test_completes_concrete_sketch(self):
        result = synthesize(concrete(Repeat(NUM, 3)), ["123"], ["12"])
        assert result.solved
        assert result.best == Repeat(NUM, 3)

    def test_rejects_inconsistent_concrete_sketch(self):
        result = synthesize(concrete(Repeat(NUM, 3)), ["1234"], [])
        assert not result.solved

    def test_small_hole_search(self):
        """An unconstrained-but-shallow hole can still find Repeat(<num>, 2)."""
        config = SynthesisConfig(hole_depth=2, timeout=10.0)
        result = synthesize(
            hole(NUM), ["12", "99", "07"], ["1", "123", "ab"], config=config
        )
        assert result.solved
        regex = result.best
        assert matches(regex, "56")
        assert not matches(regex, "5")

    def test_sketch_guides_to_target(self):
        """A sketch with useful hints completes to a consistent regex."""
        sketch = parse_sketch("Concat(Hole(RepeatRange(<let>,1,3)),Hole(Repeat(<num>,2)))")
        config = SynthesisConfig(hole_depth=2, timeout=10.0)
        result = synthesize(
            sketch,
            ["ab12", "a34", "xyz99"],
            ["ab1", "1234", "abcd12"],
            config=config,
        )
        assert result.solved
        regex = result.best
        assert matches(regex, "zz55")
        assert not matches(regex, "zz5")

    def test_motivating_example_with_good_sketch(self):
        """Section 2 end-to-end: decimal(18,3) from the Eq. (1)-style sketch.

        The search order is deterministic, so its work is pinned exactly.
        """
        sketch = parse_sketch(
            "Concat(Hole(RepeatRange(<num>,1,15)),"
            "Hole(Optional(Concat(<.>,RepeatRange(<num>,1,3)))))"
        )
        config = SynthesisConfig(hole_depth=2, timeout=15.0)
        start = time.perf_counter()
        result = synthesize(sketch, SECTION2_POSITIVES, SECTION2_NEGATIVES, config=config)
        assert time.perf_counter() - start < SECONDS_CEILING
        assert result.solved
        assert (result.expansions, result.pruned) == (660, 463)
        regex = result.best
        assert all(matches(regex, p) for p in SECTION2_POSITIVES)
        assert not any(matches(regex, n) for n in SECTION2_NEGATIVES)

    def test_timeout_respected(self):
        config = SynthesisConfig(hole_depth=4, timeout=0.2)
        result = synthesize(hole(), ["aa1", "bb2"], ["zzz9"], config=config)
        assert result.elapsed < 5.0

    def test_variants_produce_same_answer_on_easy_problem(self):
        sketch = parse_sketch("Repeat(Hole(<num>),?)")
        for variant in EngineVariant:
            result = synthesize(sketch, ["123"], ["12", "1234"], variant=variant,
                                config=SynthesisConfig(timeout=10.0, hole_depth=2))
            assert result.solved, variant
            assert matches(result.best, "456")

    def test_multiple_results_ranked_by_size(self):
        config = SynthesisConfig(hole_depth=2, timeout=10.0, max_results=3)
        result = synthesize(hole(NUM), ["12", "34"], ["1", "abc"], config=config)
        assert result.solved
        sizes = [_size(r) for r in result.regexes]
        assert sizes == sorted(sizes)


def _size(regex):
    from repro.dsl.simplify import size

    return size(regex)
