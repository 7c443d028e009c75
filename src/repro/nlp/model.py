"""Discriminative log-linear scoring model for derivations (Section 5.3).

The model scores a derivation ``d`` for utterance ``L`` as ``θ·φ(L, d)`` where
``φ`` collects rule-indicator and span features (inherited from the parser).
Training maximises the log-likelihood of producing the *gold sketch*
regardless of which derivation produced it, normalising over the beam — the
same objective the paper uses with SEMPRE.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path
from typing import Dict, Iterable, Sequence, Tuple


class LogLinearModel:
    """Sparse log-linear model over string-keyed features."""

    def __init__(self, weights: Dict[str, float] | None = None):
        self.weights: Dict[str, float] = dict(weights or {})

    def score(self, features: Dict[str, float]) -> float:
        return sum(self.weights.get(name, 0.0) * value for name, value in features.items())

    # -- persistence ----------------------------------------------------------

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.weights, indent=0, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "LogLinearModel":
        return cls(json.loads(Path(path).read_text()))

    # -- training ---------------------------------------------------------------

    def train(
        self,
        examples: Sequence[Tuple[str, str]],
        parser_factory,
        epochs: int = 5,
        learning_rate: float = 0.1,
        l2: float = 1e-4,
        beam_roots: int = 50,
        seed: int = 0,
        is_correct=None,
    ) -> Dict[str, float]:
        """Train on (utterance, gold sketch string) pairs.

        ``parser_factory`` is a zero-argument callable returning a parser bound
        to this model (so re-parsing reflects updated weights each epoch).
        ``is_correct(derivation, gold)`` decides whether a root derivation
        realises the gold sketch; the default compares the serialised sketch.
        Returns simple training statistics.
        """
        from repro.sketch.printer import sketch_to_string

        if is_correct is None:
            def is_correct(derivation, gold: str) -> bool:
                try:
                    return sketch_to_string(derivation.value) == gold
                except TypeError:
                    return False

        rng = random.Random(seed)
        stats = {"epochs": float(epochs), "examples": float(len(examples)), "reachable": 0.0}
        order = list(examples)
        for epoch in range(epochs):
            rng.shuffle(order)
            reachable = 0
            for utterance, gold in order:
                parser = parser_factory()
                roots = parser.parse(utterance)[:beam_roots]
                if not roots:
                    continue
                correct_indices = [
                    index for index, d in enumerate(roots) if is_correct(d, gold)
                ]
                if not correct_indices:
                    continue
                reachable += 1
                self._update(roots, correct_indices, learning_rate, l2)
            stats["reachable"] = float(reachable)
        return stats

    def _update(self, roots, correct_indices, learning_rate: float, l2: float) -> None:
        """One gradient step of the beam-normalised log-likelihood.

        ``correct_indices`` are the positions in ``roots`` of the derivations
        that realise the gold sketch.
        """
        scores = [self.score(d.features) for d in roots]
        log_z = _log_sum_exp(scores)
        probabilities = [math.exp(score - log_z) for score in scores]

        correct_scores = [scores[index] for index in correct_indices]
        log_z_correct = _log_sum_exp(correct_scores)
        correct_probabilities = {
            index: math.exp(scores[index] - log_z_correct) for index in correct_indices
        }

        gradient: Dict[str, float] = {}
        for index, derivation in enumerate(roots):
            weight = correct_probabilities.get(index, 0.0) - probabilities[index]
            if weight == 0.0:
                continue
            for name, value in derivation.features.items():
                gradient[name] = gradient.get(name, 0.0) + weight * value

        for name, value in gradient.items():
            current = self.weights.get(name, 0.0)
            self.weights[name] = current + learning_rate * (value - l2 * current)


def _log_sum_exp(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        return float("-inf")
    peak = max(values)
    return peak + math.log(sum(math.exp(v - peak) for v in values))
