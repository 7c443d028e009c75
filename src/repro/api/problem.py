"""The frozen :class:`Problem` specification.

A :class:`Problem` is a complete, immutable, serialisable description of one
synthesis request: the English description, the positive/negative string
examples, how many regexes to return (``k``), the wall-clock budget, and the
engine variant.  Because problems are plain frozen dataclasses that
round-trip through JSON (:meth:`Problem.to_dict` / :meth:`Problem.from_dict`),
they can be queued, batched, logged, shipped to worker processes, and
replayed — the prerequisites for running synthesis as a service.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping

from repro.synthesis.config import EngineVariant
from repro.synthesis.examples import Examples


@dataclass(frozen=True)
class Problem:
    """One synthesis request (immutable and JSON-round-trippable)."""

    #: Natural-language description of the target regex (may be empty for
    #: examples-only synthesis).
    description: str = ""
    #: Strings the regex must accept.
    positive: tuple[str, ...] = ()
    #: Strings the regex must reject.
    negative: tuple[str, ...] = ()
    #: Number of distinct consistent regexes requested.
    k: int = 1
    #: Total wall-clock budget in seconds, shared across all sketches.
    budget: float = 20.0
    #: Engine variant (full Regel or one of the Figure-18 ablations).
    variant: EngineVariant = EngineVariant.FULL
    #: Optional *pinned* sketches in the textual notation.  When non-empty,
    #: the session runs exactly these instead of asking its sketch provider —
    #: this is how corpus-generated problems carry their hole-punched
    #: sketches through the wire, and why the sketches are part of the
    #: problem (and hence of :meth:`cache_key`): the same examples under
    #: different sketches are different search problems.
    sketches: tuple[str, ...] = ()

    def __init__(
        self,
        description: str = "",
        positive: Iterable[str] = (),
        negative: Iterable[str] = (),
        k: int = 1,
        budget: float = 20.0,
        variant: EngineVariant | str = EngineVariant.FULL,
        sketches: Iterable[str] = (),
    ):
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "positive", tuple(positive))
        object.__setattr__(self, "negative", tuple(negative))
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "budget", float(budget))
        if isinstance(variant, str):
            variant = EngineVariant(variant)
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "sketches", tuple(sketches))
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.budget <= 0:
            raise ValueError(f"budget must be positive, got {self.budget}")
        if not all(isinstance(sketch, str) for sketch in self.sketches):
            raise ValueError("sketches must be strings in the textual notation")

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "description": self.description,
            "positive": list(self.positive),
            "negative": list(self.negative),
            "k": self.k,
            "budget": self.budget,
            "variant": self.variant.value,
        }
        # Emitted only when present: sketch-less problems keep the exact wire
        # form (and therefore cache_key) they had before this field existed.
        if self.sketches:
            data["sketches"] = list(self.sketches)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Problem":
        return cls(
            description=data.get("description", ""),
            positive=data.get("positive", ()),
            negative=data.get("negative", ()),
            k=data.get("k", 1),
            budget=data.get("budget", 20.0),
            variant=data.get("variant", EngineVariant.FULL),
            sketches=data.get("sketches", ()),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def canonical_json(self) -> str:
        """Deterministic JSON rendering: the service's canonical wire form.

        Keys are sorted, separators are compact, and non-ASCII is escaped, so
        two problems with equal field values always render byte-identically —
        the property :meth:`cache_key` depends on.
        """
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), ensure_ascii=True
        )

    def cache_key(self) -> str:
        """Content-addressed identity of this problem (SHA-256 hex digest).

        Equal problems hash equally regardless of field order or how the
        problem was constructed (kwargs, ``from_dict``, ``from_json``), which
        is what lets the service deduplicate identical requests across users.
        """
        return hashlib.sha256(self.canonical_json().encode("ascii")).hexdigest()

    @classmethod
    def from_json(cls, text: str) -> "Problem":
        return cls.from_dict(json.loads(text))

    # -- helpers -------------------------------------------------------------

    def examples(self) -> Examples:
        """The example set as consumed by the PBE engine."""
        return Examples(self.positive, self.negative)
