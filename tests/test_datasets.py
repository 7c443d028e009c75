"""Tests for the benchmark datasets (generation, loading, example consistency)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datasets import (
    Benchmark,
    attach_examples,
    cross_validation_folds,
    generate_deepregex_dataset,
    stackoverflow_dataset,
    train_test_split,
)
from repro.datasets.splits import training_pairs
from repro.datasets.stackoverflow import dataset_size
from repro.dsl import matches
from repro.sketch import sketch_contains


class TestBenchmarkRecord:
    def test_regex_and_sketch_parse(self):
        benchmark = Benchmark(
            benchmark_id="t-0",
            description="3 digits",
            regex_text="Repeat(<num>,3)",
            gold_sketch_text="Hole(Repeat(<num>,3))",
        )
        assert benchmark.regex_size() == 2
        assert benchmark.gold_sketch is not None
        assert benchmark.word_count() == 2

    def test_attach_examples_consistent(self):
        benchmark = Benchmark(
            benchmark_id="t-1",
            description="2 letters then 2 digits",
            regex_text="Concat(Repeat(<let>,2),Repeat(<num>,2))",
        )
        enriched = attach_examples(benchmark)
        assert enriched.positive and enriched.negative
        regex = enriched.regex
        assert all(matches(regex, s) for s in enriched.positive)
        assert not any(matches(regex, s) for s in enriched.negative)


#: Samples examples for ``stackoverflow-000`` with its examples stripped, once
#: through ``attach_examples`` and once through the interactive protocol
#: (whose solver returns nothing, so every round samples the gold language),
#: both with their default RNG; prints everything sampled as JSON.
_DEFAULT_SEED_SCRIPT = """
import json
from repro.datasets import attach_examples, stackoverflow_dataset
from repro.multimodal import run_interactive

task = stackoverflow_dataset(with_examples=False, limit=1)[0].with_examples((), ())
enriched = attach_examples(task)
rounds = []

def solve(positive, negative):
    rounds.append([list(positive), list(negative)])
    return [], 0.0

run_interactive(task, solve, max_iterations=2)
print(json.dumps([enriched.positive, enriched.negative, rounds]))
"""


def _sample_under_hash_seed(hash_seed: str) -> list:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run(
        [sys.executable, "-c", _DEFAULT_SEED_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout)


def test_default_example_sampling_is_independent_of_the_hash_seed():
    """Default RNGs are seeded from the benchmark id, not from ``hash()``."""
    first = _sample_under_hash_seed("1")
    assert first[0] and first[1] and len(first[2]) == 3
    assert _sample_under_hash_seed("2") == first


class TestDeepRegexGeneration:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_deepregex_dataset(count=30, seed=11)

    def test_requested_size(self, dataset):
        assert len(dataset) == 30

    def test_examples_consistent_with_gold(self, dataset):
        for benchmark in dataset:
            regex = benchmark.regex
            assert benchmark.positive, benchmark.benchmark_id
            assert all(matches(regex, s) for s in benchmark.positive)
            assert not any(matches(regex, s) for s in benchmark.negative)

    def test_descriptions_nonempty_and_short(self, dataset):
        for benchmark in dataset:
            assert benchmark.description.strip()
            assert benchmark.word_count() <= 30

    def test_gold_sketch_contains_target(self, dataset):
        for benchmark in dataset:
            sketch = benchmark.gold_sketch
            assert sketch is not None
            assert sketch_contains(sketch, benchmark.regex, depth=3)

    def test_unique_regexes(self, dataset):
        assert len({b.regex_text for b in dataset}) == len(dataset)

    def test_deterministic_for_seed(self):
        first = generate_deepregex_dataset(count=5, seed=3, with_examples=False)
        second = generate_deepregex_dataset(count=5, seed=3, with_examples=False)
        assert [b.regex_text for b in first] == [b.regex_text for b in second]


class TestStackOverflowDataset:
    @pytest.fixture(scope="class")
    def dataset(self):
        return stackoverflow_dataset()

    def test_size_matches_paper(self, dataset):
        assert dataset_size() == 62
        assert len(dataset) == 62

    def test_examples_consistent_with_gold(self, dataset):
        for benchmark in dataset:
            regex = benchmark.regex
            assert benchmark.positive, benchmark.benchmark_id
            assert all(matches(regex, s) for s in benchmark.positive), benchmark.benchmark_id
            assert not any(matches(regex, s) for s in benchmark.negative), benchmark.benchmark_id

    def test_gold_sketches_parse(self, dataset):
        for benchmark in dataset:
            assert benchmark.gold_sketch is not None

    def test_harder_than_deepregex(self, dataset):
        deepregex = generate_deepregex_dataset(count=30, seed=11, with_examples=False)
        avg_words_so = sum(b.word_count() for b in dataset) / len(dataset)
        avg_words_dr = sum(b.word_count() for b in deepregex) / len(deepregex)
        avg_size_so = sum(b.regex_size() for b in dataset) / len(dataset)
        avg_size_dr = sum(b.regex_size() for b in deepregex) / len(deepregex)
        # Section 7: StackOverflow descriptions are longer (26 vs 12 words) and
        # target regexes larger (11 vs 5 nodes) than DeepRegex ones.
        assert avg_words_so > avg_words_dr
        assert avg_size_so > avg_size_dr

    def test_motivating_benchmark_present(self, dataset):
        assert any("Decimal(18, 3)" in b.description for b in dataset)


class TestSplits:
    def test_train_test_split_partition(self):
        data = generate_deepregex_dataset(count=20, seed=5, with_examples=False)
        train, test = train_test_split(data, 0.75, seed=1)
        assert len(train) + len(test) == 20
        assert not set(b.benchmark_id for b in train) & set(b.benchmark_id for b in test)

    def test_cross_validation_covers_everything_once(self):
        data = stackoverflow_dataset(with_examples=False)
        folds = cross_validation_folds(data, folds=5)
        assert len(folds) == 5
        test_ids = [b.benchmark_id for _, test in folds for b in test]
        assert sorted(test_ids) == sorted(b.benchmark_id for b in data)
        for train, test in folds:
            assert not set(b.benchmark_id for b in train) & set(b.benchmark_id for b in test)

    def test_training_pairs(self):
        data = stackoverflow_dataset(with_examples=False)
        pairs = training_pairs(data)
        assert len(pairs) == len(data)
        assert all(isinstance(u, str) and isinstance(g, str) for u, g in pairs)
