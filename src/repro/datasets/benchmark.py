"""The benchmark record shared by both datasets."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.dsl import ast as rast
from repro.dsl.parser import parse_regex
from repro.sketch import parse_sketch
from repro.sketch.ast import Sketch


@dataclass
class Benchmark:
    """One regex-synthesis task.

    ``gold_sketch`` is the manually written sketch label used to train the
    semantic parser (Section 7, "Training for each data set"); it is never
    given to the synthesizer at test time.
    """

    benchmark_id: str
    description: str
    regex_text: str
    positive: tuple[str, ...] = ()
    negative: tuple[str, ...] = ()
    gold_sketch_text: Optional[str] = None
    source: str = "generated"

    @property
    def regex(self) -> rast.Regex:
        return parse_regex(self.regex_text)

    @property
    def gold_sketch(self) -> Optional[Sketch]:
        if self.gold_sketch_text is None:
            return None
        return parse_sketch(self.gold_sketch_text)

    def with_examples(self, positive: tuple[str, ...], negative: tuple[str, ...]) -> "Benchmark":
        return replace(self, positive=positive, negative=negative)

    def word_count(self) -> int:
        return len(self.description.split())

    def regex_size(self) -> int:
        from repro.dsl.simplify import size

        return size(self.regex)
