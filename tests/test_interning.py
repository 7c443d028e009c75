"""Regression tests for hash-consing and the caches built on top of it."""

import pickle
import sys
import threading

import pytest

from repro import caches
from repro.dsl import ast as r
from repro.dsl.intern import check_intern_tables, intern_table_sizes
from repro.dsl.parser import parse_regex
from repro.dsl.semantics import Matcher, RecursiveMatcher
from repro.sketch import hole, parse_sketch
from repro.synthesis import (
    APPROX_CACHE_STATS,
    Examples,
    PLeaf,
    POp,
    POpen,
    SynthesisConfig,
    Synthesizer,
    approximate_partial,
    open_nodes,
)
from repro.synthesis.partial import FreeLabel, replace_node


class TestRegexInterning:
    def test_equal_structure_is_identical_object(self):
        a = r.Concat(r.NUM, r.Optional(r.literal(".")))
        b = r.Concat(r.NUM, r.Optional(r.literal(".")))
        assert a is b

    def test_subtrees_are_shared(self):
        inner = r.Repeat(r.NUM, 3)
        outer = r.Or(r.Repeat(r.NUM, 3), r.LET)
        assert outer.left is inner

    def test_parser_returns_canonical_nodes(self):
        text = "Concat(RepeatRange(<num>,1,15),Optional(Concat(<.>,RepeatRange(<num>,1,3))))"
        assert parse_regex(text) is parse_regex(text)

    def test_predefined_singletons_are_canonical(self):
        from repro.dsl.charclass import CharClassKind

        assert r.CharClass(CharClassKind.NUM) is r.NUM
        assert r.literal("a") is r.CharClass("a")

    def test_distinct_structure_distinct_objects(self):
        assert r.Or(r.NUM, r.ANY) is not r.And(r.NUM, r.ANY)
        assert r.Repeat(r.NUM, 2) is not r.Repeat(r.NUM, 3)
        assert r.Concat(r.NUM, r.LET) != r.Concat(r.LET, r.NUM)

    def test_validation_still_raises(self):
        with pytest.raises(ValueError):
            r.Repeat(r.NUM, 0)
        with pytest.raises(ValueError):
            r.RepeatRange(r.NUM, 3, 1)

    def test_pickle_reinterns(self):
        node = r.Concat(r.RepeatAtLeast(r.ALPHANUM, 2), r.Not(r.Contains(r.SPEC)))
        assert pickle.loads(pickle.dumps(node)) is node

    def test_hash_stable_and_usable_in_sets(self):
        assert len({r.Repeat(r.NUM, 2), r.Repeat(r.NUM, 2), r.Repeat(r.NUM, 3)}) == 2


class TestInternTables:
    def test_hash_is_the_identity_hash(self):
        node = r.Concat(r.NUM, r.Repeat(r.LET, 2))
        partial = POp("Concat", (PLeaf(node), POpen(hole(r.NUM))))
        assert hash(node) == object.__hash__(node)
        assert hash(partial) == object.__hash__(partial)

    def test_dropped_node_leaves_its_table(self):
        before = intern_table_sizes(r.RepeatRange)["RepeatRange"]
        node = r.RepeatRange(r.HEX, 17, 19)
        assert intern_table_sizes(r.RepeatRange)["RepeatRange"] == before + 1
        del node
        assert intern_table_sizes(r.RepeatRange)["RepeatRange"] == before

    def test_entry_carries_its_key(self):
        node = r.RepeatRange(r.HEX, 17, 20)
        entry = r.RepeatRange._intern_table[(r.HEX, 17, 20)]
        assert entry() is node and entry.key == (r.HEX, 17, 20)
        assert check_intern_tables(r.RepeatRange) >= 1

    def test_racing_reinsert_survives_cleanup_of_the_dead_entry(self):
        table = r.RepeatRange._intern_table
        key = (r.HEX, 17, 21)
        node = r.RepeatRange(*key)
        dead = table[key]
        del node
        assert dead() is None and key not in table
        # Put the dead entry back as if its cleanup had not run yet: another
        # thread re-interns the structure first, then the cleanup runs late.
        with caches.CACHE_LOCK:
            table[key] = dead
        fresh = r.RepeatRange(*key)
        assert table[key] is not dead
        table.remove(dead)
        assert table[key]() is fresh
        assert r.RepeatRange(*key) is fresh
        del fresh
        assert key not in table
        # A cleanup that finds its own dead entry still in place deletes it.
        with caches.CACHE_LOCK:
            table[key] = dead
        table.remove(dead)
        assert key not in table

    def test_churning_threads_never_see_two_canonical_objects(self):
        # Threads build, re-build and drop the same few structures, so entries
        # die and are re-inserted while other threads look them up.  A lost
        # insert race, or a cleanup deleting a live entry, would make the
        # second construction return a different object than the first.
        n_threads, rounds = 8, 400
        barrier = threading.Barrier(n_threads)
        errors = []

        def churn() -> None:
            try:
                barrier.wait(timeout=10.0)
                for index in range(rounds):
                    count = 30 + index % 3
                    node = r.Concat(r.RepeatRange(r.HEX, count, 40), r.literal("~"))
                    again = r.Concat(r.RepeatRange(r.HEX, count, 40), r.literal("~"))
                    if again is not node:
                        errors.append((index, node, again))
                    del node, again
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        check_intern_tables(r.Concat, r.RepeatRange)


class TestPartialInterning:
    def test_equal_partials_are_identical(self):
        a = POp("Concat", (PLeaf(r.NUM), POpen(hole(r.NUM))))
        b = POp("Concat", (PLeaf(r.NUM), POpen(hole(r.NUM))))
        assert a is b

    def test_replace_node_replaces_only_leftmost_occurrence(self):
        # With hash-consing the two free sibling positions are the *same*
        # object; expansion must still instantiate exactly one position.
        free = POpen(FreeLabel((), 1))
        partial = POp("Concat", (free, free))
        assert partial.children[0] is partial.children[1]
        result = replace_node(partial, free, PLeaf(r.NUM))
        assert result.children[0] == PLeaf(r.NUM)
        assert result.children[1] is free
        assert len(open_nodes(result)) == 1


class TestEvaluationCacheSharing:
    def test_memo_hits_across_structurally_equal_candidates(self):
        matcher = Matcher("ab12")
        first = r.Concat(r.Repeat(r.LET, 2), r.Repeat(r.NUM, 2))
        assert matcher.matches(first)
        misses_after_first = matcher.cache_misses
        hits_after_first = matcher.cache_hits
        # A separately constructed but structurally equal candidate must be
        # answered entirely from cache.
        second = r.Concat(r.Repeat(r.LET, 2), r.Repeat(r.NUM, 2))
        assert matcher.matches(second)
        assert matcher.cache_misses == misses_after_first
        assert matcher.cache_hits > hits_after_first

    def test_shared_subtrees_hit_across_different_candidates(self):
        matcher = Matcher("ab12")
        assert matcher.matches(r.Repeat(r.LET, 2)) is False
        misses = matcher.cache_misses
        # A different candidate reusing the same subtree only pays for the
        # genuinely new nodes: Concat, Repeat(<num>,2), its Repeat(<num>,1)
        # power, and <num> — the whole Repeat(<let>,2) subtree is a hit.
        assert matcher.matches(r.Concat(r.Repeat(r.LET, 2), r.Repeat(r.NUM, 2)))
        new_misses = matcher.cache_misses - misses
        assert new_misses <= 4

    def test_examples_aggregate_cache_stats(self):
        examples = Examples(["ab"], ["cd"])
        regex = r.Repeat(r.LET, 2)
        assert examples.consistent(regex) is False  # accepts "cd" too
        hits, misses = examples.eval_cache_stats()
        assert misses > 0
        examples.consistent(regex)
        hits_again, misses_again = examples.eval_cache_stats()
        assert misses_again == misses
        assert hits_again > hits

    def test_examples_agree_with_recursive_oracle(self):
        examples = Examples(["ab1", "xy2"], ["ab", "123"])
        regex = r.Concat(r.RepeatAtLeast(r.LET, 1), r.NUM)
        assert examples.consistent(regex) is True
        assert all(RecursiveMatcher(s).matches(regex) for s in examples.positive)
        assert not any(RecursiveMatcher(s).matches(regex) for s in examples.negative)


class TestApproximationCache:
    def test_repeated_partials_hit_cache(self):
        partial = POp("Concat", (PLeaf(r.NUM), POpen(hole(r.RepeatRange(r.NUM, 1, 3)))))
        approximate_partial(partial, 2)
        hits_before = APPROX_CACHE_STATS.hits
        again = approximate_partial(partial, 2)
        assert APPROX_CACHE_STATS.hits > hits_before
        assert again == approximate_partial(partial, 2)

    def test_spine_recomputation_reuses_subtrees(self):
        shared = POp("Repeat", (PLeaf(r.NUM),), (3,))
        left = POp("Concat", (shared, POpen(hole(r.NUM))))
        approximate_partial(left, 2)
        hits_before = APPROX_CACHE_STATS.hits
        # A sibling search state containing the same (interned) subtree only
        # recomputes its own spine.
        right = POp("Or", (shared, POpen(hole(r.LET))))
        approximate_partial(right, 2)
        assert APPROX_CACHE_STATS.hits > hits_before


class TestEngineIntegration:
    def test_engine_reports_cache_telemetry(self):
        sketch = parse_sketch(
            "Concat(Hole(RepeatRange(<num>,1,15)),"
            "Hole(Optional(Concat(<.>,RepeatRange(<num>,1,3)))))"
        )
        examples = Examples(
            ["123456789.123", "123456789123456.12", "12345.1", "123456789123456"],
            ["1234567891234567", "123.1234", "1.12345", ".1234"],
        )
        config = SynthesisConfig(hole_depth=2, timeout=15.0)
        result = Synthesizer(config).synthesize(sketch, examples)
        assert result.solved
        assert result.eval_cache_hits > 0
        assert result.eval_cache_misses > 0
        assert result.approx_cache_hits > 0

    def test_subsumption_store_is_structural(self):
        engine = Synthesizer(SynthesisConfig())
        run = engine.start(parse_sketch("Hole()"), Examples(["ab"], []))
        # RepeatAtLeast(<num>, 1) rejects the positive example "ab": the
        # rejection is recorded as a per-argument count threshold ...
        assert run._consistent(r.RepeatAtLeast(r.NUM, 1), run.examples) is False
        assert run._rejected_atleast[r.NUM] == 1
        # ... so every higher count is rejected in O(1).
        assert run._consistent(r.RepeatAtLeast(r.NUM, 7), run.examples) is False
        # Contains rejections subsume StartsWith/EndsWith of the same argument.
        assert run._consistent(r.Contains(r.literal("z")), run.examples) is False
        assert r.literal("z") in run._rejected_contains
        assert run._consistent(r.StartsWith(r.literal("z")), run.examples) is False

    def test_sketch_report_round_trips_cache_fields(self):
        from repro.api.results import SketchReport

        report = SketchReport(
            index=0,
            sketch="Hole()",
            expansions=10,
            pruned=4,
            elapsed=0.1,
            solved=True,
            timed_out=False,
            eval_cache_hits=123,
            eval_cache_misses=45,
            approx_cache_hits=6,
        )
        assert SketchReport.from_dict(report.to_dict()) == report
        # Reports written before the cache counters existed still load.
        legacy = dict(report.to_dict())
        for key in ("eval_cache_hits", "eval_cache_misses", "approx_cache_hits"):
            legacy.pop(key)
        loaded = SketchReport.from_dict(legacy)
        assert loaded.eval_cache_hits == 0
