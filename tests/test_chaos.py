"""Chaos suite: the service under deterministic, seeded fault injection.

Every scenario here arms a :mod:`repro.faults` plan, drives the real
production code paths (no mocks of the failing layer), and asserts the
self-healing contract: corrupt cache entries quarantine as misses, failing
backends trip the breaker into degraded-but-serving mode, wedged jobs are
settled by the watchdog, torn batch snapshots replay from the journal, and
clients retry transient faults to success — with every injected fault either
retried, degraded around, or surfaced as a typed error.  Nothing hangs and
no batch item is ever lost.
"""

import json
import time

import pytest

from repro import faults
from repro.api import Problem, RunReport
from repro.faults import InjectedFault
from repro.service import (
    JobLostError,
    ResultCache,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceState,
    WorkerPool,
    start_server,
)
from repro.service.batch import BatchRecord, BatchStore, _journal_path
from repro.service.pool import Job

FAST_PROBLEM = Problem(
    "3 digits", positive=["123", "456"], negative=["12", "abcd"], budget=10.0
)


@pytest.fixture(autouse=True)
def disarm():
    """An armed plan outliving its test would fault the rest of the suite."""
    yield
    faults.configure(None)


def _open_cache(kind, tmp_path, **kwargs):
    # ``kind`` is the ``backend`` label ``/v1/stats`` reports.
    cache = ResultCache(tmp_path / "cache", **kwargs)
    assert cache.stats()["backend"] == kind
    return cache


# ---------------------------------------------------------------------------
# Cache: quarantine, circuit breaker, crash consistency
# ---------------------------------------------------------------------------


class TestCacheQuarantine:
    @pytest.mark.parametrize("kind", ["json"])
    def test_corrupt_entry_is_a_miss_not_an_error(self, kind, tmp_path):
        cache = _open_cache(kind, tmp_path)
        key = "a" * 64
        cache.put(key, {"solved": True})
        (tmp_path / "cache" / f"{key}.json").write_text("{torn mid-wri")
        assert cache.get(key) is None
        stats = cache.stats()
        assert stats["quarantined"] == 1
        assert stats["breaker"]["state"] == "closed"  # corruption != backend down
        # The entry is gone for good: the next get is a plain miss.
        assert cache.get(key) is None
        assert cache.stats()["quarantined"] == 1

    def test_quarantined_file_kept_for_inspection(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = "b" * 64
        cache.put(key, {"v": 1})
        (tmp_path / "cache" / f"{key}.json").write_text("not json")
        assert cache.get(key) is None
        assert (tmp_path / "cache" / f"{key}.quarantined").is_file()
        assert len(cache) == 0  # excluded from the store and its LRU scan


class TestCacheBreaker:
    @pytest.mark.parametrize("kind", ["json"])
    def test_breaker_trips_and_recovers(self, kind, tmp_path):
        cache = _open_cache(
            kind, tmp_path, breaker_threshold=3, breaker_cooldown=0.05
        )
        key = "c" * 64
        cache.put(key, {"v": 1})
        faults.configure("cache.read:p=1")
        for _ in range(3):
            assert cache.get(key) is None  # absorbed failures, miss semantics
        stats = cache.stats()
        assert stats["read_errors"] == 3
        assert stats["breaker"]["state"] == "open" and stats["breaker"]["trips"] == 1
        assert not cache.healthy()
        # While open: short-circuit miss, no backend touch, faults keep off.
        assert cache.get(key) is None
        cache.put(key, {"v": 2})  # skipped, not an error
        assert cache.stats()["read_errors"] == 3
        # After the cooldown a probe goes through; the backend healed
        # (faults disarmed), so the breaker closes and hits resume.
        faults.configure(None)
        time.sleep(0.06)
        assert cache.get(key) == {"v": 1}
        assert cache.healthy()
        assert cache.stats()["breaker"]["state"] == "closed"

    def test_write_successes_do_not_mask_a_failing_read_path(self, tmp_path):
        # Error streaks are per path: in live traffic every failed read is
        # followed by a successful write-through of the re-solved report,
        # and that steady interleaving must still trip the breaker.
        cache = ResultCache(
            tmp_path / "cache", breaker_threshold=3, breaker_cooldown=60.0
        )
        faults.configure("cache.read:p=1")
        key = "b" * 64
        for version in range(3):
            assert cache.get(key) is None
            cache.put(key, {"v": version})
        assert not cache.healthy()
        stats = cache.stats()
        assert stats["breaker"]["state"] == "open"
        assert stats["read_errors"] == 3 and stats["write_errors"] == 0

    def test_failed_probe_rearms_the_cooldown(self, tmp_path):
        cache = ResultCache(
            tmp_path / "cache", breaker_threshold=2, breaker_cooldown=0.05
        )
        faults.configure("cache.read:p=1")
        key = "d" * 64
        cache.get(key), cache.get(key)
        assert not cache.healthy()
        time.sleep(0.06)
        assert cache.get(key) is None  # probe fires, fails, re-opens
        assert not cache.healthy()
        assert cache.stats()["read_errors"] == 3


class TestCacheCrashConsistency:
    @pytest.mark.parametrize("kind", ["json"])
    def test_write_killed_midway_leaves_no_torn_entry(self, kind, tmp_path):
        cache = _open_cache(kind, tmp_path)
        key = "e" * 64
        faults.configure("cache.write:nth=1")
        cache.put(key, {"v": 1})  # dies at the commit point, absorbed
        assert cache.stats()["write_errors"] == 1
        faults.configure(None)
        reopened = _open_cache(kind, tmp_path)
        assert reopened.get(key) is None  # a clean miss, never a torn read
        reopened.put(key, {"v": 2})
        assert reopened.get(key) == {"v": 2}

    @pytest.mark.parametrize("kind", ["json"])
    def test_overwrite_killed_midway_preserves_old_value(self, kind, tmp_path):
        cache = _open_cache(kind, tmp_path)
        key = "f" * 64
        cache.put(key, {"v": "old"})
        faults.configure("cache.write:nth=1")
        cache.put(key, {"v": "new"})  # killed before the rename/commit
        faults.configure(None)
        reopened = _open_cache(kind, tmp_path)
        assert reopened.get(key) == {"v": "old"}


# ---------------------------------------------------------------------------
# Batch records: journal replay and persist crash consistency
# ---------------------------------------------------------------------------


class TestBatchJournalRecovery:
    def _record_with_history(self, tmp_path):
        store = BatchStore(tmp_path / "batches")
        record = store.create()
        record.append_item("queued", cache_key="k0")
        record.append_item("queued", cache_key="k1")
        record.update_item(0, "solved", regex="Repeat(<num>,3)")
        record.update_item(1, "cached", regex="<num>")
        return record

    def test_snapshot_killed_midway_recovers_from_journal(self, tmp_path):
        record = self._record_with_history(tmp_path)
        faults.configure("batch.persist:nth=1")
        record.save()  # dies at the rename; absorbed and counted
        faults.configure(None)
        assert record.persist_errors == 1
        loaded = BatchRecord.load(record.path)
        assert [item["status"] for item in loaded.items] == ["solved", "cached"]
        assert loaded.recovered  # the journal supplied what the snapshot lost

    def test_corrupt_snapshot_rebuilds_entirely_from_journal(self, tmp_path):
        record = self._record_with_history(tmp_path)
        record.save()
        record.path.write_text("{torn json!")
        loaded = BatchRecord.load(record.path)
        assert loaded.batch_id == record.batch_id
        assert loaded.items == record.items
        assert loaded.recovered

    def test_torn_trailing_journal_line_is_skipped(self, tmp_path):
        record = self._record_with_history(tmp_path)
        with open(_journal_path(record.path), "a", encoding="utf-8") as handle:
            handle.write('{"seq": 99, "index"')  # the line a crash interrupted
        record.path.write_text("{torn json!")
        loaded = BatchRecord.load(record.path)
        assert [item["status"] for item in loaded.items] == ["solved", "cached"]

    def test_journal_without_snapshot_is_loadable(self, tmp_path):
        record = self._record_with_history(tmp_path)
        record.path.unlink()  # crashed before the first successful save
        store = BatchStore(tmp_path / "batches")
        loaded = store.get(record.batch_id)
        assert loaded is not None
        assert [item["status"] for item in loaded.items] == ["solved", "cached"]
        assert store.stats()["recovered"] == 1

    def test_replayed_record_continues_journaling_safely(self, tmp_path):
        record = self._record_with_history(tmp_path)
        record.path.write_text("{torn json!")
        loaded = BatchRecord.load(record.path)
        seq_after_load = loaded.journal_seq
        loaded.append_item("queued", cache_key="k2")
        assert loaded.journal_seq == seq_after_load + 1  # no seq reuse
        loaded.save()
        reloaded = BatchRecord.load(record.path)
        assert len(reloaded.items) == 3

    def test_appends_after_a_torn_line_are_not_lost(self, tmp_path):
        store = BatchStore(tmp_path / "batches")
        record = store.create()
        record.append_item("queued", cache_key="k0")
        record.append_item("queued", cache_key="k1")
        with open(_journal_path(record.path), "a", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "index"')  # the line a crash interrupted
        reopened = BatchRecord.load(record.path)
        reopened.update_item(0, "solved", regex="Repeat(<num>,3)")
        reopened.update_item(1, "solved", regex="<num>")
        loaded = BatchRecord.load(record.path)
        assert [item["status"] for item in loaded.items] == ["solved", "solved"]
        record.path.unlink()  # the journal alone holds both transitions
        loaded = BatchRecord.load(record.path)
        assert [item["status"] for item in loaded.items] == ["solved", "solved"]

    def test_failed_append_is_backed_by_a_fallback_snapshot(self, tmp_path):
        record = self._record_with_history(tmp_path)
        faults.configure("batch.persist:nth=1")
        record.update_item(0, "failed", error="x")  # the append dies mid-line
        faults.configure(None)
        assert record.persist_errors == 1
        loaded = BatchRecord.load(record.path)
        assert [item["status"] for item in loaded.items] == ["failed", "cached"]
        # The next append starts on a fresh line after the torn one.
        record.update_item(1, "unsolved")
        record.path.unlink()
        loaded = BatchRecord.load(record.path)
        # The failed transition lived only in the (now deleted) snapshot.
        assert [item["status"] for item in loaded.items] == ["solved", "unsolved"]

    def test_replay_restores_the_record_timestamps(self, tmp_path):
        record = self._record_with_history(tmp_path)
        record.update_item(1, "unsolved")  # journal-only: no snapshot yet
        loaded = BatchRecord.load(record.path)
        assert loaded.updated == record.updated
        record.path.unlink()
        loaded = BatchRecord.load(record.path)
        assert (loaded.created, loaded.updated) == (record.created, record.updated)

    def test_unusable_snapshot_and_journal_is_a_clean_404(self, tmp_path):
        store = BatchStore(tmp_path / "batches")
        record = store.create()
        record.path.write_text("{torn")
        _journal_path(record.path).write_text("{also torn")
        fresh = BatchStore(tmp_path / "batches")
        assert fresh.get(record.batch_id) is None
        assert fresh.stats()["load_errors"] == 1


# ---------------------------------------------------------------------------
# Pool watchdog
# ---------------------------------------------------------------------------


class _InstantSession:
    last_report = None

    def iter_solutions(self, problem, cancel=None):
        self.last_report = RunReport(problem=problem)
        return iter(())


class TestPoolWatchdog:
    def test_wedged_job_is_settled_as_failed(self):
        # An injected hang at pool.job is a worker wedged in non-cooperative
        # code; the watchdog must settle the job so pollers get an answer.
        faults.configure("pool.job:nth=1:kind=hang:sleep=30")
        pool = WorkerPool(
            lambda: _InstantSession(),
            workers=1,
            queue_size=2,
            watchdog_grace=0.2,
        )
        try:
            job = Job(Problem("wedge", positive=["1"], budget=0.2))
            pool.submit(job)
            assert job.wait(timeout=10.0)
            assert job.status == "failed"
            assert "watchdog" in (job.error or "")
            stats = pool.stats()
            assert stats["watchdog_failed"] == 1 and stats["failed"] == 1
            # The hang honours the watchdog's cancel, so the worker unwedges
            # and the pool reports healthy again.
            deadline = time.monotonic() + 5.0
            while not pool.healthy() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool.healthy()
        finally:
            faults.configure(None)
            pool.close()

    def test_healthy_jobs_never_trip_the_watchdog(self):
        pool = WorkerPool(
            lambda: _InstantSession(),
            workers=1,
            queue_size=2,
            watchdog_grace=0.2,
        )
        try:
            job = Job(FAST_PROBLEM)
            pool.submit(job)
            assert job.wait(timeout=5.0)
            assert job.status == "done"
            assert pool.stats()["watchdog_failed"] == 0
        finally:
            pool.close()


# ---------------------------------------------------------------------------
# Degraded health reporting
# ---------------------------------------------------------------------------


class TestDegradedHealth:
    def test_open_breaker_degrades_healthz(self, tmp_path):
        cache = ResultCache(
            tmp_path / "cache", breaker_threshold=2, breaker_cooldown=0.05
        )
        config = ServiceConfig(
            port=0, workers=1, cache_path=str(tmp_path / "cache")
        )
        state = ServiceState(config, cache=cache)
        try:
            status, payload = state.handle_healthz()
            assert status == 200 and payload["status"] == "ok"
            assert payload["subsystems"] == {"cache": "ok", "pool": "ok"}
            faults.configure("cache.read:p=1")
            cache.get("a" * 64), cache.get("a" * 64)
            status, payload = state.handle_healthz()
            assert status == 200  # degraded is still alive
            assert payload["status"] == "degraded"
            assert payload["subsystems"]["cache"] == "degraded"
            _, stats = state.handle_stats()
            assert stats["health"]["status"] == "degraded"
            assert stats["cache"]["breaker"]["state"] == "open"
            # Self-healing: disarm, cooldown, probe, and health recovers.
            faults.configure(None)
            time.sleep(0.06)
            cache.get("a" * 64)
            status, payload = state.handle_healthz()
            assert payload["status"] == "ok"
        finally:
            faults.configure(None)
            state.close()


# ---------------------------------------------------------------------------
# Client retry / backoff / JobLostError
# ---------------------------------------------------------------------------


@pytest.fixture()
def retry_server(tmp_path):
    config = ServiceConfig(
        port=0,
        workers=1,
        cache_path=str(tmp_path / "cache"),
        batch_dir=str(tmp_path / "batches"),
        sketches=8,
    )
    live = start_server(config)
    yield live
    live.close()


def _retry_client(server, retries=3):
    host, port = server.server_address[:2]
    return ServiceClient(
        f"http://{host}:{port}",
        timeout=30.0,
        retries=retries,
        backoff_base=0.01,
        backoff_cap=0.05,
        retry_seed=7,
    )


class TestClientRetry:
    def test_transient_connection_fault_is_retried_to_success(self, retry_server):
        client = _retry_client(retry_server)
        faults.configure("client.request:nth=1")
        body = client.healthz()
        assert body["status"] in ("ok", "degraded")
        assert client.retries_performed == 1

    def test_retry_budget_exhaustion_surfaces_the_fault(self, retry_server):
        client = _retry_client(retry_server, retries=1)
        faults.configure("client.request:p=1")
        with pytest.raises(InjectedFault):
            client.healthz()
        assert client.retries_performed == 1

    def test_retries_zero_disables_retrying(self, retry_server):
        client = _retry_client(retry_server, retries=0)
        faults.configure("client.request:nth=1")
        with pytest.raises(InjectedFault):
            client.healthz()
        assert client.retries_performed == 0

    def test_batch_create_is_never_blind_retried(self, retry_server):
        # Creating a batch is the one non-idempotent request: a retry after
        # an ambiguous failure could register the batch twice.
        client = _retry_client(retry_server)
        lines = [json.dumps(FAST_PROBLEM.to_dict())]
        faults.configure("client.request:nth=1")
        with pytest.raises(ConnectionError):
            client.submit_batch(lines)
        assert client.retries_performed == 0

    def test_batch_resume_is_retried(self, retry_server):
        client = _retry_client(retry_server)
        problem = Problem("resume retry", positive=["1"], budget=0.001)
        receipt = client.submit_batch([json.dumps(problem.to_dict())])
        client.wait_batch(receipt["batch_id"], timeout=30)
        faults.configure("client.request:nth=1")
        second = client.submit_batch(
            [json.dumps(problem.to_dict())], batch_id=receipt["batch_id"]
        )
        assert second["batch_id"] == receipt["batch_id"]
        assert client.retries_performed >= 1

    def test_retryability_policy(self):
        client = ServiceClient("http://127.0.0.1:1")
        saturated = ServiceError(429, "saturated", "busy")
        flaky = ServiceError(503, "internal", "hiccup")
        engine = ServiceError(500, "engine_error", "synthesis failed")
        assert client._retryable_response(saturated, idempotent=False)
        assert client._retryable_response(flaky, idempotent=True)
        assert not client._retryable_response(flaky, idempotent=False)
        # A deterministic engine failure would just re-fail identically.
        assert not client._retryable_response(engine, idempotent=True)
        assert not client._retryable_response(
            ServiceError(422, "unsatisfiable", "no"), idempotent=True
        )

    def test_backoff_grows_honours_retry_after_and_caps(self):
        client = ServiceClient(
            "http://127.0.0.1:1", backoff_base=0.1, backoff_cap=2.0, retry_seed=1
        )
        first = client._backoff(0, None)
        assert 0.05 <= first <= 0.1
        assert client._backoff(0, 0.5) >= 0.5  # Retry-After floors the delay
        assert client._backoff(10, None) <= 2.0  # cap beats exponent
        assert client._backoff(0, 60.0) <= 2.0  # cap beats Retry-After too

    def test_lost_job_surfaces_as_typed_error(self):
        client = ServiceClient("http://127.0.0.1:1", retries=0)
        client.submit = lambda problem: {
            "job_id": "feed" * 8,
            "status": "queued",
            "solutions": [],
        }

        def lost(job_id):
            raise ServiceError(404, "not_found", f"no such job: {job_id}")

        client.job = lost
        with pytest.raises(JobLostError) as info:
            list(client.iter_solutions(FAST_PROBLEM, poll_interval=0.01))
        assert info.value.job_id == "feed" * 8
        assert info.value.code == "job_lost"
        assert "resubmit" in str(info.value)
        assert isinstance(info.value, ServiceError)  # old handlers still catch


# ---------------------------------------------------------------------------
# Live chaos smoke: the whole stack under a seeded schedule
# ---------------------------------------------------------------------------


class TestLiveChaosSmoke:
    SPEC = (
        "seed=7;"
        "cache.read:p=0.1;cache.write:p=0.1;"
        "batch.persist:p=0.05;batch.ingest:p=0.05;"
        "server.response:p=0.03;client.request:p=0.03"
    )

    def test_seeded_chaos_roundtrip(self, tmp_path):
        faults.configure(self.SPEC)
        config = ServiceConfig(
            port=0,
            workers=2,
            cache_path=str(tmp_path / "cache"),
            batch_dir=str(tmp_path / "batches"),
            sketches=8,
        )
        live = start_server(config)
        try:
            host, port = live.server_address[:2]
            client = ServiceClient(
                f"http://{host}:{port}",
                timeout=30.0,
                retries=5,
                backoff_base=0.02,
                backoff_cap=0.2,
                retry_seed=7,
            )
            # Interactive solves: each must terminate (answer or typed error).
            solved = 0
            for n in range(2, 6):
                problem = Problem(
                    f"{n} chaos digits",
                    positive=["1" * n, "2" * n],
                    negative=["a"],
                    budget=10.0,
                )
                try:
                    report = client.solve(problem)
                    solved += 1
                    assert report.cache_key == problem.cache_key()
                except OSError:
                    pass  # surfaced as a typed/connection error: acceptable
            assert solved >= 1

            # Batch ingestion: create (with manual re-create on ambiguous
            # failure, mirroring what an operator's tooling would do), then
            # resume by id until every item is terminal.
            problems = [
                json.dumps(
                    Problem(
                        f"{n} chaos batch digits",
                        positive=["3" * n],
                        negative=["b"],
                        budget=10.0,
                    ).to_dict()
                )
                for n in range(2, 6)
            ]
            receipt = None
            for _ in range(20):
                try:
                    receipt = client.submit_batch(problems)
                    break
                except OSError:
                    time.sleep(0.05)
            assert receipt is not None
            batch_id = receipt["batch_id"]

            deadline = time.monotonic() + 120.0
            summary = None
            while time.monotonic() < deadline:
                try:
                    summary = client.batch_status(batch_id, limit=1)
                except OSError:
                    time.sleep(0.1)
                    continue
                if summary["done"]:
                    break
                try:
                    # Re-POST the stream: terminal and live items are
                    # skipped, stranded ones re-ingested.
                    client.submit_batch(problems, batch_id=batch_id)
                except OSError:
                    pass
                time.sleep(0.2)
            assert summary is not None and summary["done"], "batch never settled"
            # No item lost: every line is accounted for and terminal.
            assert summary["total"] == len(problems)
            assert summary["counts"]["queued"] == 0
            assert sum(summary["counts"].values()) == len(problems)

            # The schedule really fired, and the server kept serving.
            for _ in range(20):
                try:
                    stats = client.stats()
                    break
                except OSError:
                    time.sleep(0.05)
            assert stats["faults"]["active"] is True
            assert stats["health"]["status"] in ("ok", "degraded")
        finally:
            faults.configure(None)
            live.close()
