"""Tests for partial regexes, expansion, and approximation (Sections 4.0-4.1)."""

import pytest

from repro.dsl import Concat, NUM, Not, Or, Repeat, RepeatRange, literal, matches
from repro.sketch import concrete, hole, parse_sketch
from repro.synthesis import (
    Examples,
    FreeLabel,
    HoleLabel,
    PLeaf,
    POp,
    POpen,
    SymInt,
    SynthesisConfig,
    approximate_partial,
    approximate_sketch,
    expand,
    infeasible,
    initial_partial,
    is_concrete,
    is_symbolic,
    open_nodes,
    partial_size,
    substitute_symint,
    symints_of,
    to_regex,
)
from repro.synthesis.expand import SymIntFactory, default_char_classes


class TestPartialRegexBasics:
    def test_leaf_is_concrete(self):
        partial = PLeaf(Repeat(NUM, 2))
        assert is_concrete(partial)
        assert not is_symbolic(partial)
        assert to_regex(partial) == Repeat(NUM, 2)

    def test_open_node_not_concrete(self):
        partial = POpen(hole(NUM))
        assert not is_concrete(partial)
        assert open_nodes(partial) == (partial,)
        with pytest.raises(ValueError):
            to_regex(partial)

    def test_symbolic_partial(self):
        partial = POp("Repeat", (PLeaf(NUM),), (SymInt("k1"),))
        assert is_symbolic(partial)
        assert symints_of(partial) == (SymInt("k1"),)
        with pytest.raises(ValueError):
            to_regex(partial)
        concretised = substitute_symint(partial, "k1", 3)
        assert to_regex(concretised) == Repeat(NUM, 3)

    def test_partial_size(self):
        partial = POp("Concat", (PLeaf(NUM), POpen(hole(NUM))))
        assert partial_size(partial) == 3


class TestExpand:
    def setup_method(self):
        self.config = SynthesisConfig(hole_depth=2)
        self.symints = SymIntFactory()

    def test_op_sketch_expansion(self):
        sketch = parse_sketch("Concat(Hole(<num>),Hole(<,>))")
        root = initial_partial(sketch)
        successors = expand(root, root, self.config, self.symints)
        assert len(successors) == 1
        successor = successors[0]
        assert isinstance(successor, POp) and successor.op == "Concat"
        assert len(open_nodes(successor)) == 2

    def test_concrete_sketch_expansion(self):
        root = initial_partial(concrete(Repeat(NUM, 3)))
        successors = expand(root, root, self.config, self.symints)
        assert successors == [PLeaf(Repeat(NUM, 3))]

    def test_hole_expansion_includes_components_and_operators(self):
        root = initial_partial(hole(NUM))
        successors = expand(root, root, self.config, self.symints)
        # Component fill + 12 operator placements (9 unary/binary positions) + 3 repeat ops.
        assert any(isinstance(s, POpen) for s in successors)
        ops = {s.op for s in successors if isinstance(s, POp)}
        assert {"Concat", "Or", "Not", "Repeat", "RepeatRange"} <= ops

    def test_hole_depth_one_only_components(self):
        config = SynthesisConfig(hole_depth=1)
        root = initial_partial(hole(NUM, literal(",")))
        successors = expand(root, root, config, self.symints)
        assert len(successors) == 2
        assert all(isinstance(s, POpen) for s in successors)

    def test_symbolic_int_expansion(self):
        sketch = parse_sketch("RepeatAtLeast(Hole(<num>),?)")
        root = initial_partial(sketch)
        successors = expand(root, root, self.config, self.symints)
        assert len(successors) == 1
        assert symints_of(successors[0])

    def test_enumerated_int_expansion(self):
        config = SynthesisConfig(use_symbolic_ints=False, max_enum_int=4)
        sketch = parse_sketch("Repeat(Hole(<num>),?)")
        root = initial_partial(sketch)
        successors = expand(root, root, config, SymIntFactory())
        assert len(successors) == 4
        assert all(not symints_of(s) for s in successors)

    def test_enumerated_repeat_range_pairs_ordered(self):
        config = SynthesisConfig(use_symbolic_ints=False, max_enum_int=3)
        sketch = parse_sketch("RepeatRange(Hole(<num>),?,?)")
        root = initial_partial(sketch)
        successors = expand(root, root, config, SymIntFactory())
        for successor in successors:
            low, high = successor.ints
            assert low <= high

    def test_default_char_classes_include_example_punctuation(self):
        leaves = default_char_classes(".9a")
        assert literal(".") in leaves
        assert literal("9") not in leaves  # alphanumerics covered by classes


class TestApproximation:
    def test_concrete_sketch_exact(self):
        over, under = approximate_sketch(concrete(Repeat(NUM, 2)))
        assert over == Repeat(NUM, 2)
        assert under == Repeat(NUM, 2)

    def test_hole_depth_one_or_and(self):
        sketch = hole(NUM, literal(","))
        over, under = approximate_sketch(sketch, hole_depth=1)
        assert matches(over, "5") and matches(over, ",")
        assert not matches(under, "5")  # under = And(<num>, <,>) which is empty

    def test_hole_deep_is_top_bottom(self):
        over, under = approximate_sketch(hole(NUM), hole_depth=3)
        assert matches(over, "anything at all")
        assert not matches(under, "")

    def test_not_swaps_approximations(self):
        sketch = parse_sketch("Not(Hole(<,>,RepeatRange(<num>,1,3)))")
        over, under = approximate_sketch(sketch, hole_depth=1)
        # Paper Section 2: the under-approximation is Not(Or(<,>, RepeatRange(<num>,1,3))).
        assert not matches(under, ",")
        assert not matches(under, "12")
        assert matches(under, "1234567891234567")

    def test_paper_figure3_partial_regex_pruned(self):
        """The partial regex of Figure 3 is rejected via its under-approximation."""
        inner = parse_sketch("Hole(<,>,RepeatRange(<num>,1,3))")
        partial = POp("Concat", (PLeaf(NUM), POp("Not", (POpen(HoleLabel(inner.components, 1)),))))
        over, under = approximate_partial(partial)
        negative = "1234567891234567"
        assert matches(under, negative)
        examples = Examples(
            ["123456789.123", "12345.1"], [negative]
        )
        assert infeasible(partial, examples, SynthesisConfig())

    def test_symbolic_repeat_approximation(self):
        partial = POp("Repeat", (PLeaf(NUM),), (SymInt("k1"),))
        over, under = approximate_partial(partial)
        assert matches(over, "123")
        assert not matches(under, "123")

    def test_free_label_top_bottom(self):
        partial = POpen(FreeLabel((), 2))
        over, under = approximate_partial(partial)
        assert matches(over, "xyz")
        assert not matches(under, "xyz")

    def test_feasible_partial_not_pruned(self):
        sketch = parse_sketch("Concat(Hole(<num>,<,>),Hole(RepeatRange(<num>,1,3),<,>))")
        partial = initial_partial(sketch)
        examples = Examples(["123456789.123"], ["1.12345"])
        assert not infeasible(partial, examples, SynthesisConfig())

    def test_enum_variant_never_prunes(self):
        config = SynthesisConfig(use_approximation=False)
        partial = PLeaf(literal("z"))
        examples = Examples(["123"], [])
        assert not infeasible(partial, examples, config)
