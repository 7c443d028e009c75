"""Tests for the deterministic fault-injection subsystem (``repro.faults``)."""

import json
import time

import pytest

from repro.faults import (
    ENV_VAR,
    FaultPlan,
    FaultSpecError,
    InjectedFault,
    configure,
    configure_from_env,
    fault_point,
    fault_stats,
    faults_active,
    parse_spec,
)


@pytest.fixture(autouse=True)
def disarm():
    """Never let an armed plan outlive its test."""
    yield
    configure(None)


def _fire_sequence(spec_text: str, point: str, calls: int) -> list:
    """Call numbers (1-based) at which ``point`` fires under ``spec_text``."""
    plan = FaultPlan(parse_spec(spec_text))
    fired = []
    for call in range(1, calls + 1):
        try:
            plan.hit(point)
        except InjectedFault:
            fired.append(call)
    return fired


class TestSpecParsing:
    def test_full_grammar_round_trips(self):
        text = "seed=42;cache.read:p=0.1;pool.job:nth=3,7:kind=hang:sleep=0.5"
        spec = parse_spec(text)
        assert spec.seed == 42
        assert spec.rules["cache.read"].probability == 0.1
        assert spec.rules["pool.job"].nth == (3, 7)
        assert spec.rules["pool.job"].kind == "hang"
        assert spec.rules["pool.job"].sleep == 0.5
        assert parse_spec(spec.to_string()) == spec

    def test_empty_spec_is_armed_but_silent(self):
        spec = parse_spec("seed=0")
        assert spec.rules == {}
        plan = FaultPlan(spec)
        for _ in range(100):
            plan.hit("cache.read")  # never raises
        assert plan.stats()["points"]["cache.read"]["calls"] == 100
        assert plan.total_fired() == 0

    def test_whitespace_and_empty_segments_ignored(self):
        spec = parse_spec(" seed=3 ; cache.read:p=0.5 ; ")
        assert spec.seed == 3 and "cache.read" in spec.rules

    @pytest.mark.parametrize(
        "bad",
        [
            "seed=abc",
            "cache.read:p=nope",
            "cache.read:p=1.5",
            "cache.read:nth=0",
            "cache.read:nth=a,b",
            "cache.read:kind=explode",
            "cache.read:sleep=-1",
            "cache.read:frobnicate=1",
            "cache.read:p",
        ],
    )
    def test_malformed_specs_fail_loudly(self, bad):
        with pytest.raises(FaultSpecError):
            parse_spec(bad)

    def test_last_seed_wins(self):
        assert parse_spec("seed=1;cache.read:p=0.1;seed=9").seed == 9


class TestDeterminism:
    def test_same_spec_same_schedule(self):
        spec = "seed=11;cache.read:p=0.3"
        assert _fire_sequence(spec, "cache.read", 200) == _fire_sequence(
            spec, "cache.read", 200
        )

    def test_different_seeds_differ(self):
        a = _fire_sequence("seed=1;cache.read:p=0.3", "cache.read", 200)
        b = _fire_sequence("seed=2;cache.read:p=0.3", "cache.read", 200)
        assert a != b

    def test_nth_fires_exactly_there(self):
        assert _fire_sequence("cache.read:nth=2,5", "cache.read", 10) == [2, 5]

    def test_every_fires_on_multiples(self):
        assert _fire_sequence("pool.job:every=3", "pool.job", 10) == [3, 6, 9]

    def test_schedules_combine(self):
        fired = _fire_sequence("x:nth=1:every=4", "x", 9)
        assert fired == [1, 4, 8]

    def test_points_have_independent_streams(self):
        # Decisions at one point must not depend on traffic at another:
        # drive two plans with different interleavings, same per-point calls.
        spec = parse_spec("seed=5;a:p=0.4;b:p=0.4")

        def drive(order):
            plan = FaultPlan(spec)
            fired = []
            counters = {"a": 0, "b": 0}
            for point in order:
                counters[point] += 1
                try:
                    plan.hit(point)
                except InjectedFault:
                    fired.append((point, counters[point]))
            return sorted(fired)

        interleaved = drive(["a", "b"] * 50)
        sequential = drive(["a"] * 50 + ["b"] * 50)
        assert interleaved == sequential


class TestRuntime:
    def test_disabled_fault_point_is_noop(self):
        configure(None)
        assert not faults_active()
        fault_point("cache.read")  # must not raise, allocate, or count

    def test_injected_fault_is_a_connection_error(self):
        # The whole point: generic I/O hardening absorbs injected faults.
        fault = InjectedFault("cache.read", 3)
        assert isinstance(fault, ConnectionError)
        assert isinstance(fault, OSError)
        assert fault.point == "cache.read" and fault.call == 3

    def test_armed_plan_fires_through_fault_point(self):
        configure("x:nth=1")
        with pytest.raises(InjectedFault):
            fault_point("x")
        fault_point("x")  # call 2: silent

    def test_hang_stalls_then_continues(self):
        configure("x:nth=1:kind=hang:sleep=0.05")
        start = time.monotonic()
        fault_point("x")  # stalls, does not raise
        assert time.monotonic() - start >= 0.04

    def test_hang_honours_cancel_token(self):
        class Cancelled:
            cancelled = True

        configure("x:nth=1:kind=hang:sleep=30")
        start = time.monotonic()
        fault_point("x", cancel=Cancelled())
        assert time.monotonic() - start < 1.0

    def test_disarmed_points_cost_under_one_percent_of_a_cached_hit(self, tmp_path):
        """Dormant points must stay invisible on the service's fastest request.

        An armed-but-silent ``seed=0`` plan counts the points one in-process
        cached ``/v1/solve`` traverses; their disarmed cost is that count
        times the per-call cost of a disarmed ``fault_point``.
        """
        from repro.service import ServiceConfig, ServiceState

        def fastest(run, repeats):
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                run()
                times.append(time.perf_counter() - start)
            return min(times)

        loop = 100_000

        def disarmed_calls():
            for _ in range(loop):
                fault_point("cache.read")

        configure(None)
        per_call = fastest(disarmed_calls, 3) / loop

        body = json.dumps(
            {"description": "3 digits", "positive": ["123", "456"],
             "negative": ["12"], "budget": 10.0}
        ).encode()
        state = ServiceState(
            ServiceConfig(workers=1, cache_path=str(tmp_path))
        )

        def cached_hit():
            status, hit = state.handle_solve(body)
            assert status == 200 and hit["provenance"] == "cache", (status, hit)

        try:
            status, cold = state.handle_solve(body)
            assert status == 200 and cold["provenance"] == "engine", (status, cold)
            hit_seconds = fastest(cached_hit, 5)
            plan = configure("seed=0")
            cached_hit()
            calls = sum(point["calls"] for point in plan.stats()["points"].values())
            assert plan.total_fired() == 0
        finally:
            configure(None)
            state.close()
        assert calls >= 1
        assert calls * per_call < 0.01 * hit_seconds, (calls, per_call, hit_seconds)

    def test_stats_count_unarmed_points_too(self):
        plan = configure("seed=1;x:nth=1")
        with pytest.raises(InjectedFault):
            fault_point("x")
        fault_point("unarmed.point")
        stats = plan.stats()
        assert stats["points"]["x"] == {"calls": 1, "fired": 1}
        assert stats["points"]["unarmed.point"] == {"calls": 1, "fired": 0}
        assert plan.total_fired() == 1

    def test_fault_stats_reports_inactive(self):
        configure(None)
        assert fault_stats() == {"active": False}
        configure("seed=2;x:p=0.1")
        stats = fault_stats()
        assert stats["active"] is True and stats["seed"] == 2

    def test_configure_from_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "seed=9;cache.read:nth=1")
        plan = configure_from_env()
        assert plan is not None and plan.spec.seed == 9
        monkeypatch.delenv(ENV_VAR)
        assert configure_from_env() is None

    def test_typoed_env_spec_raises(self, monkeypatch):
        # Silently arming nothing would fake a green chaos run.
        monkeypatch.setenv(ENV_VAR, "cache.read:oops=1")
        with pytest.raises(FaultSpecError) as info:
            configure_from_env()
        assert ENV_VAR in str(info.value)
