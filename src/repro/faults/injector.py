"""Deterministic fault injection: named points, seeded schedules, counters.

The service's hot paths call :func:`fault_point` with a stable name
(``"cache.read"``, ``"pool.job"``, ...).  With no plan armed — the production
default — the call is a single global load and a ``None`` check, measured in
nanoseconds (a test pins it under 1% of a cached hit).  With a plan armed
(``REPRO_FAULTS`` in the environment, or :func:`configure` from a test), the
point consults its rule and either raises :class:`InjectedFault`, stalls for
a bounded ``hang``, or falls through.

Determinism is the whole design: each point owns a
``random.Random(f"{seed}|{point}")`` stream and a call counter, so whether
call *n* at point *p* fires is a pure function of ``(seed, p, n)`` —
independent of thread interleaving *across* points, wall-clock time, and
everything else.  Re-running a chaos schedule with the same seed replays the
same faults.

:class:`InjectedFault` subclasses :class:`ConnectionError` (hence
:class:`OSError`): code hardened to absorb real I/O failures absorbs injected
ones through the very same ``except`` clauses, which is what makes the chaos
suite a test of the production error paths rather than of special cases.
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import Any, Dict, Optional

from repro.faults.spec import (
    KIND_HANG,
    FaultRule,
    FaultSpec,
    FaultSpecError,
    parse_spec,
)

__all__ = [
    "InjectedFault",
    "FaultPlan",
    "active_plan",
    "configure",
    "configure_from_env",
    "fault_point",
    "fault_stats",
    "faults_active",
]

#: Environment variable holding the fault spec (see :mod:`repro.faults.spec`).
ENV_VAR = "REPRO_FAULTS"


class InjectedFault(ConnectionError):
    """A deliberately injected failure at a named fault point.

    Subclasses :class:`ConnectionError` so the generic I/O hardening
    (``except OSError`` and friends) absorbs it exactly like a real fault.
    """

    def __init__(self, point: str, call: int):
        super().__init__(f"injected fault at {point!r} (call #{call})")
        self.point = point
        self.call = call


class _PointState:
    """Per-point call counter + seeded RNG stream (mutated under the plan lock)."""

    __slots__ = ("rule", "rng", "calls", "fired")

    def __init__(self, rule: Optional[FaultRule], seed: int, point: str):
        self.rule = rule
        self.rng = random.Random(f"{seed}|{point}")
        self.calls = 0
        self.fired = 0


class FaultPlan:
    """An armed fault schedule: the runtime form of a :class:`FaultSpec`."""

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self._lock = threading.Lock()
        self._points: Dict[str, _PointState] = {
            point: _PointState(rule, spec.seed, point)
            for point, rule in spec.rules.items()
        }

    def hit(self, point: str, cancel: Any = None) -> None:
        """Record one traversal of ``point``; fire if the schedule says so."""
        with self._lock:
            state = self._points.get(point)
            if state is None:
                # Unarmed points are still counted: the overhead benchmark
                # and the chaos suite both want traversal totals.
                state = self._points[point] = _PointState(
                    None, self.spec.seed, point
                )
            state.calls += 1
            rule = state.rule
            if rule is None:
                return
            call = state.calls
            # Drawing unconditionally keeps the stream position a function
            # of the call number alone, whatever the schedule options.
            draw = state.rng.random()
            if not rule.should_fire(call, draw):
                return
            state.fired += 1
        # The fault itself happens outside the lock: a hang must never hold
        # up other points, and a raised fault must not poison the plan.
        if rule.kind == KIND_HANG:
            self._stall(rule.sleep, cancel)
            return
        raise InjectedFault(point, call)

    @staticmethod
    def _stall(seconds: float, cancel: Any) -> None:
        """Stall like a wedged thread, but honour a cooperative cancel."""
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            if cancel is not None and getattr(cancel, "cancelled", False):
                return
            time.sleep(min(0.01, seconds))

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "seed": self.spec.seed,
                "spec": self.spec.to_string(),
                "points": {
                    point: {"calls": state.calls, "fired": state.fired}
                    for point, state in sorted(self._points.items())
                },
            }

    def total_fired(self) -> int:
        with self._lock:
            return sum(state.fired for state in self._points.values())


#: The armed plan, or None (the production default).  A plain attribute —
#: not a registered cache — because it is written only by configure() and
#: read with a single atomic load on the hot path.
_ACTIVE: Optional[FaultPlan] = None


def configure(spec: "FaultSpec | str | None") -> Optional[FaultPlan]:
    """Arm a fault plan (spec object or ``REPRO_FAULTS`` string), or disarm.

    Returns the armed plan (None when disarming).  Tests should disarm in a
    ``finally`` — an armed plan outliving its test would fault the suite.
    """
    global _ACTIVE
    if spec is None:
        _ACTIVE = None
        return None
    if isinstance(spec, str):
        spec = parse_spec(spec)
    plan = FaultPlan(spec)
    _ACTIVE = plan
    return plan


def configure_from_env(environ: Optional[Dict[str, str]] = None) -> Optional[FaultPlan]:
    """Arm from ``REPRO_FAULTS`` if set (and non-empty); disarm otherwise."""
    value = (environ if environ is not None else os.environ).get(ENV_VAR)
    if value is None or not value.strip():
        return configure(None)
    try:
        return configure(value)
    except FaultSpecError as exc:
        # A typo'd spec must fail loudly: silently arming nothing would
        # report a green chaos run that injected zero faults.
        raise FaultSpecError(f"invalid {ENV_VAR}: {exc}") from None


def fault_point(name: str, cancel: Any = None) -> None:
    """Declare a named fault point; a no-op unless a plan is armed.

    ``cancel`` (anything with a ``cancelled`` attribute, e.g.
    :class:`repro.api.CancelToken`) lets ``hang`` faults stall cooperatively.
    """
    plan = _ACTIVE
    if plan is None:
        return
    plan.hit(name, cancel)


def faults_active() -> bool:
    return _ACTIVE is not None


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE


def fault_stats() -> Dict[str, Any]:
    """Stats for ``/v1/stats``: ``{"active": False}`` or the plan's counters."""
    plan = _ACTIVE
    if plan is None:
        return {"active": False}
    stats = plan.stats()
    stats["active"] = True
    return stats


# Arm from the environment once at import, mirroring REPRO_SANITIZE: the
# service, the CLI, and pytest all see the same spec without plumbing.
configure_from_env()
