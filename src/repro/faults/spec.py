"""The ``REPRO_FAULTS`` specification: which points fail, when, and how.

A spec is a semicolon-separated list of segments.  The first kind of segment
sets the seed; every other segment arms one named fault point::

    REPRO_FAULTS="seed=42;cache.read:p=0.1;pool.job:nth=3:kind=hang:sleep=0.5"

Per-point options (colon-separated ``key=value`` pairs after the point name):

``p=<float>``
    Fire with this probability on every call, drawn from the point's own
    seeded RNG — the decision sequence is a pure function of
    ``(seed, point name, call number)``, so a chaos run replays exactly.
``nth=<n>[,<n>...]``
    Fire on exactly these call numbers (1-based).
``every=<n>``
    Fire on every ``n``-th call (call numbers ``n, 2n, 3n, ...``).
``kind=error|hang``
    ``error`` (default) raises :class:`repro.faults.InjectedFault`;
    ``hang`` stalls the call for ``sleep`` seconds (honouring a cooperative
    cancel token when the call site passes one) and then continues — the
    shape of a wedged thread rather than a crash.
``sleep=<float>``
    Stall duration for ``kind=hang`` (default 0.25 s).

Schedules combine: a point armed with both ``nth`` and ``p`` fires when
either rule says so.  A segment of just ``seed=<int>`` may appear anywhere;
the last one wins.  Whitespace around segments is ignored.  Parsing is
strict — a typo in a chaos spec must fail loudly, not silently arm nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["FaultRule", "FaultSpec", "FaultSpecError", "parse_spec"]

#: Fault behaviours a rule may select.
KIND_ERROR = "error"
KIND_HANG = "hang"
KINDS = (KIND_ERROR, KIND_HANG)


class FaultSpecError(ValueError):
    """A malformed ``REPRO_FAULTS`` value (typo'd point option, bad number)."""


@dataclass(frozen=True)
class FaultRule:
    """When and how one named fault point fires."""

    point: str
    probability: float = 0.0
    nth: Tuple[int, ...] = ()
    every: int = 0
    kind: str = KIND_ERROR
    sleep: float = 0.25

    def __post_init__(self) -> None:
        if not self.point:
            raise FaultSpecError("fault rule needs a point name")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultSpecError(
                f"{self.point}: probability must be in [0, 1], got {self.probability}"
            )
        if any(n < 1 for n in self.nth):
            raise FaultSpecError(f"{self.point}: nth call numbers are 1-based")
        if self.every < 0:
            raise FaultSpecError(f"{self.point}: every must be >= 1 (or omitted)")
        if self.kind not in KINDS:
            raise FaultSpecError(
                f"{self.point}: unknown kind {self.kind!r}; choose from {KINDS}"
            )
        if self.sleep < 0:
            raise FaultSpecError(f"{self.point}: sleep must be >= 0")

    def should_fire(self, call: int, draw: float) -> bool:
        """Decide for 1-based call number ``call`` given the RNG draw."""
        if call in self.nth:
            return True
        if self.every and call % self.every == 0:
            return True
        return self.probability > 0.0 and draw < self.probability


@dataclass(frozen=True)
class FaultSpec:
    """A parsed ``REPRO_FAULTS`` value: the seed plus one rule per point."""

    seed: int = 0
    rules: Dict[str, FaultRule] = field(default_factory=dict)

    def to_string(self) -> str:
        """Round-trip back to the environment-variable syntax."""
        segments = [f"seed={self.seed}"]
        for rule in self.rules.values():
            parts = [rule.point]
            if rule.probability:
                parts.append(f"p={rule.probability}")
            if rule.nth:
                parts.append("nth=" + ",".join(str(n) for n in rule.nth))
            if rule.every:
                parts.append(f"every={rule.every}")
            if rule.kind != KIND_ERROR:
                parts.append(f"kind={rule.kind}")
                parts.append(f"sleep={rule.sleep}")
            segments.append(":".join(parts))
        return ";".join(segments)


def _parse_float(point: str, key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise FaultSpecError(f"{point}: {key} must be a number, got {value!r}") from None


def _parse_rule(segment: str) -> FaultRule:
    head, *options = segment.split(":")
    point = head.strip()
    fields: dict = {"point": point}
    for option in options:
        key, sep, value = option.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not value:
            raise FaultSpecError(f"{point}: option {option!r} is not key=value")
        if key == "p":
            fields["probability"] = _parse_float(point, "p", value)
        elif key == "nth":
            try:
                fields["nth"] = tuple(sorted(int(n) for n in value.split(",")))
            except ValueError:
                raise FaultSpecError(
                    f"{point}: nth must be comma-separated integers, got {value!r}"
                ) from None
        elif key == "every":
            fields["every"] = int(_parse_float(point, "every", value))
        elif key == "kind":
            fields["kind"] = value
        elif key == "sleep":
            fields["sleep"] = _parse_float(point, "sleep", value)
        else:
            raise FaultSpecError(f"{point}: unknown option {key!r}")
    return FaultRule(**fields)


def parse_spec(text: str) -> FaultSpec:
    """Parse a ``REPRO_FAULTS`` value; raises :class:`FaultSpecError`.

    An empty (or all-whitespace) string parses to a spec with no rules —
    an *armed but silent* plan, useful for counting fault-point traversals
    without ever firing (the fault-overhead test does this).
    """
    seed = 0
    rules: Dict[str, FaultRule] = {}
    for segment in text.split(";"):
        segment = segment.strip()
        if not segment:
            continue
        if segment.startswith("seed="):
            try:
                seed = int(segment[len("seed="):])
            except ValueError:
                raise FaultSpecError(f"seed must be an integer: {segment!r}") from None
            continue
        rule = _parse_rule(segment)
        rules[rule.point] = rule
    return FaultSpec(seed=seed, rules=rules)
