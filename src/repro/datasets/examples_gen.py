"""Attaching positive/negative examples to benchmarks.

The original corpora obtained examples from human annotators (up to 7 positive
and 7 negative per task); we sample them from the gold regex's automaton
(positives) and from near-miss mutations / the complement language
(negatives).  Benchmarks that already carry hand-written examples keep them
and are only topped up.
"""

from __future__ import annotations

import random
import zlib
from typing import Optional

from repro.automata.sampling import sample_negative, sample_positive
from repro.datasets.benchmark import Benchmark


def attach_examples(
    benchmark: Benchmark,
    num_positive: int = 4,
    num_negative: int = 5,
    rng: Optional[random.Random] = None,
    max_length: int = 18,
) -> Benchmark:
    """Return a copy of the benchmark with sampled examples attached.

    The defaults (4 positive, 5 negative) match the per-benchmark averages the
    paper reports for the adapted DeepRegex dataset.
    """
    rng = rng or random.Random(zlib.crc32(benchmark.benchmark_id.encode()))
    regex = benchmark.regex
    positive = list(benchmark.positive)
    negative = list(benchmark.negative)
    if len(positive) < num_positive:
        sampled = sample_positive(regex, num_positive, rng, max_length=max_length)
        for example in sampled:
            if example not in positive:
                positive.append(example)
    if len(negative) < num_negative:
        sampled = sample_negative(
            regex, num_negative, rng, positives=positive or None, max_length=max_length
        )
        for example in sampled:
            if example not in negative:
                negative.append(example)
    return benchmark.with_examples(
        tuple(positive[: max(num_positive, len(benchmark.positive))]),
        tuple(negative[: max(num_negative, len(benchmark.negative))]),
    )
