"""Tests for the HTTP/JSON service: cache backends, pool, handlers, server."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import Problem, RunReport
from repro.service import (
    JsonDirCache,
    NullCache,
    PoolSaturated,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceState,
    SqliteCache,
    WorkerPool,
    make_cache,
    start_server,
)
from repro.service.pool import Job
from repro.service.wire import WireError, parse_problem

FAST_PROBLEM = Problem(
    "3 digits", positive=["123", "456"], negative=["12", "abcd"], budget=10.0
)


# ---------------------------------------------------------------------------
# Canonical hashing (the cache key)
# ---------------------------------------------------------------------------


class TestProblemHashing:
    def test_equal_problems_hash_equal(self):
        a = Problem("3 digits", positive=["123"], negative=["12"])
        b = Problem.from_json(a.to_json())
        assert a.cache_key() == b.cache_key()

    def test_hash_is_field_order_independent(self):
        data = FAST_PROBLEM.to_dict()
        reordered = {key: data[key] for key in reversed(list(data))}
        assert Problem.from_dict(reordered).cache_key() == FAST_PROBLEM.cache_key()

    def test_different_problems_hash_differently(self):
        a = Problem("3 digits", positive=["123"])
        b = Problem("3 digits", positive=["124"])
        c = Problem("3 digits", positive=["123"], budget=5.0)
        assert len({a.cache_key(), b.cache_key(), c.cache_key()}) == 3

    def test_key_is_sha256_hex(self):
        key = FAST_PROBLEM.cache_key()
        assert len(key) == 64 and all(ch in "0123456789abcdef" for ch in key)


# ---------------------------------------------------------------------------
# Cache backends
# ---------------------------------------------------------------------------


@pytest.fixture(params=["json", "sqlite"])
def cache(request, tmp_path):
    if request.param == "json":
        backend = JsonDirCache(tmp_path / "cache", max_entries=3)
    else:
        backend = SqliteCache(tmp_path / "cache.sqlite", max_entries=3)
    yield backend
    backend.close()


class TestResultCache:
    def test_miss_then_hit(self, cache):
        assert cache.get("a" * 64) is None
        cache.put("a" * 64, {"solved": True})
        assert cache.get("a" * 64) == {"solved": True}
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["stores"] == 1

    def test_overwrite_same_key(self, cache):
        cache.put("b" * 64, {"v": 1})
        cache.put("b" * 64, {"v": 2})
        assert cache.get("b" * 64) == {"v": 2}
        assert len(cache) == 1

    def test_lru_eviction_bound(self, cache):
        for index in range(5):
            cache.put(f"{index}" * 64, {"v": index})
            time.sleep(0.01)  # distinct mtimes for the json backend
        assert len(cache) == 3
        assert cache.stats()["evictions"] == 2
        # The oldest entries were evicted, the newest survive.
        assert cache.get("0" * 64) is None
        assert cache.get("4" * 64) == {"v": 4}

    def test_lru_recency_refresh_on_hit(self, cache):
        for index in range(3):
            cache.put(f"{index}" * 64, {"v": index})
            time.sleep(0.01)
        assert cache.get("0" * 64) is not None  # refresh the oldest
        time.sleep(0.01)
        cache.put("9" * 64, {"v": 9})  # evicts "1", not the refreshed "0"
        assert cache.get("0" * 64) is not None
        assert cache.get("1" * 64) is None

    def test_persistence_across_instances(self, cache, tmp_path):
        cache.put("c" * 64, {"v": 3})
        if isinstance(cache, JsonDirCache):
            reopened = JsonDirCache(tmp_path / "cache", max_entries=3)
        else:
            cache.close()
            reopened = SqliteCache(tmp_path / "cache.sqlite", max_entries=3)
        assert reopened.get("c" * 64) == {"v": 3}
        reopened.close()

    def test_malformed_key_rejected(self, tmp_path):
        backend = JsonDirCache(tmp_path / "cache")
        with pytest.raises(ValueError):
            backend.put("../escape", {})

    def test_null_cache_never_stores(self):
        cache = NullCache()
        cache.put("d" * 64, {"v": 1})
        assert cache.get("d" * 64) is None
        assert cache.stats()["entries"] == 0

    def test_make_cache_registry(self, tmp_path):
        assert isinstance(make_cache("null", tmp_path), NullCache)
        with pytest.raises(ValueError):
            make_cache("redis", tmp_path)


# ---------------------------------------------------------------------------
# Wire validation
# ---------------------------------------------------------------------------


class TestWire:
    def test_parse_round_trip(self):
        parsed = parse_problem(FAST_PROBLEM.to_json().encode())
        assert parsed == FAST_PROBLEM

    def test_rejects_non_json(self):
        with pytest.raises(WireError):
            parse_problem(b"not json")

    def test_rejects_non_object(self):
        with pytest.raises(WireError):
            parse_problem(b"[1, 2]")

    def test_rejects_bad_examples(self):
        with pytest.raises(WireError):
            parse_problem(b'{"positive": [123]}')

    def test_rejects_bare_string_examples(self):
        # tuple("123") would silently become ('1','2','3') — a different
        # problem with a legitimate-looking cache key.
        with pytest.raises(WireError) as info:
            parse_problem(b'{"positive": "123"}')
        assert "array" in str(info.value)

    def test_rejects_bad_budget(self):
        with pytest.raises(WireError):
            parse_problem(b'{"budget": -1}')

    def test_rejects_over_budget(self):
        body = json.dumps({"description": "x", "budget": 500.0}).encode()
        with pytest.raises(WireError) as info:
            parse_problem(body, max_budget=120.0)
        assert info.value.code == "budget_too_large"

    def test_rejects_oversize_body(self):
        with pytest.raises(WireError) as info:
            parse_problem(b"x" * (2 << 20))
        assert info.value.status == 413


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------


def _blocking_session_factory(release: threading.Event):
    """Sessions whose iter_solutions blocks until ``release`` is set."""

    class BlockingSession:
        last_report = None

        def iter_solutions(self, problem, cancel=None):
            while not release.is_set() and not (cancel and cancel.cancelled):
                time.sleep(0.005)
            self.last_report = RunReport(problem=problem)
            return iter(())

    return BlockingSession


class TestWorkerPool:
    def test_back_pressure_raises_when_saturated(self):
        release = threading.Event()
        factory = _blocking_session_factory(release)
        pool = WorkerPool(lambda: factory(), workers=1, queue_size=1)
        try:
            first = Job(FAST_PROBLEM)
            pool.submit(first)
            deadline = time.monotonic() + 5.0
            while first.status == "queued" and time.monotonic() < deadline:
                time.sleep(0.005)  # wait for the worker to pick it up
            pool.submit(Job(FAST_PROBLEM))  # fills the queue slot
            with pytest.raises(PoolSaturated):
                pool.submit(Job(FAST_PROBLEM))
            assert pool.stats()["rejected"] == 1
        finally:
            release.set()
            pool.close()

    def test_close_cancels_queued_and_running(self):
        release = threading.Event()
        factory = _blocking_session_factory(release)
        pool = WorkerPool(lambda: factory(), workers=1, queue_size=4)
        running = Job(FAST_PROBLEM)
        queued = Job(FAST_PROBLEM)
        pool.submit(running)
        deadline = time.monotonic() + 5.0
        while running.status == "queued" and time.monotonic() < deadline:
            time.sleep(0.005)
        pool.submit(queued)
        pool.close()
        assert queued.status == "cancelled"
        assert running.terminal

    def test_write_through_happens_before_job_is_done(self):
        # A client woken by job.wait() may immediately re-send the identical
        # problem; the cache write-through must already be visible by then.
        events = []

        class InstantSession:
            last_report = None

            def iter_solutions(self, problem, cancel=None):
                self.last_report = RunReport(problem=problem)
                return iter(())

        pool = WorkerPool(
            lambda: InstantSession(),
            workers=1,
            queue_size=2,
            on_complete=lambda key, report: events.append("cached"),
        )
        try:
            job = Job(FAST_PROBLEM)
            pool.submit(job)
            assert job.wait(timeout=5.0)
            events.append("done-visible")
            assert events == ["cached", "done-visible"]
        finally:
            pool.close()

    def test_broken_session_factory_fails_jobs_not_threads(self):
        pool = WorkerPool(
            lambda: (_ for _ in ()).throw(RuntimeError("no parser")),
            workers=1,
            queue_size=2,
        )
        try:
            job = Job(FAST_PROBLEM)
            pool.submit(job)
            assert job.wait(timeout=5.0)
            assert job.status == "failed"
            assert "no parser" in job.error
        finally:
            pool.close()

    def test_failed_job_records_error(self):
        class ExplodingSession:
            def iter_solutions(self, problem, cancel=None):
                raise RuntimeError("boom")
                yield  # pragma: no cover

        pool = WorkerPool(lambda: ExplodingSession(), workers=1, queue_size=2)
        try:
            job = Job(FAST_PROBLEM)
            pool.submit(job)
            assert job.wait(timeout=5.0)
            assert job.status == "failed"
            assert "boom" in job.error
            assert pool.stats()["failed"] == 1
        finally:
            pool.close()

    def test_finish_is_first_wins(self):
        # The watchdog and the worker may both try to settle one job; the
        # second transition must be a no-op, not an overwrite.
        job = Job(FAST_PROBLEM)
        assert job.finish("failed", error="watchdog: wedged") is True
        assert job.finish("done", report={"solved": True}) is False
        assert job.status == "failed"
        assert job.report is None
        assert "watchdog" in job.error


# ---------------------------------------------------------------------------
# The live HTTP server
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def server():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        config = ServiceConfig(
            port=0, workers=2, cache_backend="json", cache_path=tmp, sketches=8
        )
        live = start_server(config)
        yield live
        live.close()


@pytest.fixture(scope="module")
def client(server):
    host, port = server.server_address[:2]
    return ServiceClient(f"http://{host}:{port}")


class TestHttpService:
    def test_healthz(self, client):
        body = client.healthz()
        assert body["status"] == "ok"
        assert body["schema"] == 1
        assert body["subsystems"] == {"cache": "ok", "pool": "ok"}

    def test_solve_then_cache_hit(self, client):
        problem = Problem(
            "3 digits", positive=["123", "456"], negative=["12", "abcd"], budget=10.0
        )
        cold = client.solve(problem)
        assert cold.solved
        assert cold.provenance == "engine"
        assert cold.cache_key == problem.cache_key()
        warm = client.solve(problem)
        assert warm.provenance == "cache"
        assert warm.cache_key == problem.cache_key()
        assert [s.regex for s in warm.solutions] == [s.regex for s in cold.solutions]
        stats = client.stats()
        assert stats["cache"]["hits"] >= 1

    def test_async_job_lifecycle(self, client):
        record = client.submit(
            Problem("2 digits", positive=["12", "34"], negative=["1", "abc"], budget=10.0)
        )
        assert record["status"] in ("queued", "running", "done")
        job_id = record["job_id"]
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            record = client.job(job_id)
            if record["status"] in ("done", "failed", "cancelled"):
                break
            time.sleep(0.05)
        assert record["status"] == "done"
        assert record["solutions"]
        report = RunReport.from_dict(record["report"])
        assert report.solved

    def test_unsolved_reports_are_not_cached(self, client):
        # A vanishingly small budget: the engine deterministically runs out
        # of time before solving.  An unsolved-within-budget outcome must
        # not poison the cache (a loaded machine's failure is not a fact
        # about the problem).  Contradictory example sets no longer reach
        # the engine at all — they are rejected with HTTP 422 up front.
        problem = Problem("3 digits", positive=["xyz"], negative=["xy"], budget=0.001)
        first = client.solve(problem)
        assert not first.solved
        second = client.solve(problem)
        assert second.provenance == "engine"  # re-ran, not served from cache

    def test_submit_of_cached_problem_is_born_done(self, client):
        problem = Problem(
            "4 digits", positive=["1234", "5678"], negative=["123", "x"], budget=10.0
        )
        assert client.solve(problem).solved  # populate the cache
        record = client.submit(problem)
        assert record["status"] == "done"
        assert record["report"]["provenance"] == "cache"

    def test_iter_solutions_streams(self, client):
        problem = Problem(
            "5 digits", positive=["12345"], negative=["1234"], budget=10.0
        )
        solutions = list(client.iter_solutions(problem))
        assert solutions
        assert client.last_job["status"] == "done"

    def test_cancel_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as info:
            client.cancel("f" * 32)
        assert info.value.status == 404

    def test_malformed_body_is_400(self, client, server):
        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/solve",
            data=b"not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request)
        assert info.value.code == 400
        assert json.loads(info.value.read())["error"]["code"] == "bad_request"

    def test_over_budget_rejected(self, client):
        with pytest.raises(ServiceError) as info:
            client.solve(Problem("3 digits", positive=["123"], budget=500.0))
        assert info.value.code == "budget_too_large"

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as info:
            client._request("GET", "/v2/everything")
        assert info.value.status == 404

    def test_stats_shape(self, client):
        stats = client.stats()
        assert {"cache", "pool", "requests", "jobs", "uptime_seconds"} <= set(stats)
        assert stats["pool"]["workers"] == 2
        assert stats["cache"]["backend"] == "json"


class TestLintEndpoint:
    UNSAT = Problem(
        "impossible", positive=["abc", "12"], negative=["abc"], budget=5.0
    )

    def test_lint_satisfiable_problem(self, client):
        body = client.lint(FAST_PROBLEM)
        assert body["schema"] == 1
        assert body["satisfiable"] is True
        assert isinstance(body["diagnostics"], list)

    def test_lint_unsatisfiable_problem_is_200(self, client):
        # Linting an unsatisfiable problem is the endpoint's whole point, so
        # it answers 200 — only solve/submit turn the verdict into a 422.
        body = client.lint(self.UNSAT)
        assert body["satisfiable"] is False
        codes = {diagnostic["code"] for diagnostic in body["diagnostics"]}
        assert "conflicting-examples" in codes

    def test_lint_with_sketches(self, client):
        problem = Problem(
            "3 digits", positive=["123", "456"], negative=["12"], budget=5.0
        )
        body = client.lint(problem, sketches=["Repeat(Hole(<num>),3)"])
        assert body["satisfiable"] is True
        for diagnostic in body["diagnostics"]:
            assert {"code", "severity", "path", "message"} <= set(diagnostic)

    def test_lint_sketch_conflict_is_reported(self, client):
        # <let>* can never match a digits-only positive example.
        problem = Problem(
            "letters", positive=["123"], negative=["abc"], budget=5.0
        )
        body = client.lint(problem, sketches=["KleeneStar(<let>)"])
        codes = {diagnostic["code"] for diagnostic in body["diagnostics"]}
        assert "sketch-rejects-positive" in codes

    def test_solve_unsatisfiable_is_422(self, client):
        with pytest.raises(ServiceError) as info:
            client.solve(self.UNSAT)
        assert info.value.status == 422
        assert info.value.code == "unsatisfiable"
        diagnostics = info.value.payload["diagnostics"]
        assert diagnostics and diagnostics[0]["code"] == "unsatisfiable"
        assert diagnostics[0]["severity"] == "error"

    def test_submit_unsatisfiable_is_422(self, client):
        with pytest.raises(ServiceError) as info:
            client.submit(self.UNSAT)
        assert info.value.status == 422
        assert info.value.code == "unsatisfiable"

    def test_rejected_problem_never_reaches_pool_or_cache(self, client):
        before = client.stats()
        with pytest.raises(ServiceError):
            client.solve(self.UNSAT)
        after = client.stats()
        # No job was queued and nothing was written to or read from the
        # result cache for the rejected problem.
        assert after["jobs"]["tracked"] == before["jobs"]["tracked"]
        assert after["cache"]["misses"] == before["cache"]["misses"]


class TestBackPressureHttp:
    def test_saturated_service_answers_429(self, tmp_path):
        release = threading.Event()
        config = ServiceConfig(
            port=0, workers=1, queue_size=1, cache_backend="null", cache_path=str(tmp_path)
        )
        state = ServiceState(config)
        # Swap the pool for one whose sessions block until released, so the
        # queue fills deterministically.
        state.pool.close()
        factory = _blocking_session_factory(release)
        state.pool = WorkerPool(lambda: factory(), workers=1, queue_size=1)
        live = start_server(config, state=state)
        try:
            host, port = live.server_address[:2]
            # retries=0: this test wants to SEE the 429, not have the
            # client's backoff absorb it.
            client = ServiceClient(f"http://{host}:{port}", retries=0)
            running = client.submit(FAST_PROBLEM)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if client.job(running["job_id"])["status"] == "running":
                    break
                time.sleep(0.01)
            client.submit(Problem("x digits", positive=["9"], budget=5.0))
            with pytest.raises(ServiceError) as info:
                client.submit(Problem("y digits", positive=["8"], budget=5.0))
            assert info.value.status == 429
            assert info.value.code == "saturated"
        finally:
            release.set()
            live.close()

    def test_identical_concurrent_requests_coalesce(self, tmp_path):
        # Ten users asking for the same regex at once must cost one engine
        # run: later identical submissions attach to the in-flight job.
        release = threading.Event()
        config = ServiceConfig(
            port=0, workers=1, queue_size=2, cache_backend="null", cache_path=str(tmp_path)
        )
        state = ServiceState(config)
        state.pool.close()
        factory = _blocking_session_factory(release)
        state.pool = WorkerPool(lambda: factory(), workers=1, queue_size=2)
        live = start_server(config, state=state)
        try:
            host, port = live.server_address[:2]
            client = ServiceClient(f"http://{host}:{port}")
            first = client.submit(FAST_PROBLEM)
            again = client.submit(FAST_PROBLEM)
            assert again["job_id"] == first["job_id"]
            # A *different* problem gets its own job.
            other = client.submit(Problem("2 digits", positive=["12"], budget=5.0))
            assert other["job_id"] != first["job_id"]
            assert state.pool.stats()["submitted"] == 2
        finally:
            release.set()
            live.close()

    def test_job_cancellation(self, tmp_path):
        release = threading.Event()
        config = ServiceConfig(
            port=0, workers=1, queue_size=4, cache_backend="null", cache_path=str(tmp_path)
        )
        state = ServiceState(config)
        state.pool.close()
        factory = _blocking_session_factory(release)
        state.pool = WorkerPool(lambda: factory(), workers=1, queue_size=4)
        live = start_server(config, state=state)
        try:
            host, port = live.server_address[:2]
            client = ServiceClient(f"http://{host}:{port}")
            record = client.submit(FAST_PROBLEM)
            client.cancel(record["job_id"])
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                record = client.job(record["job_id"])
                if record["status"] in ("cancelled", "done", "failed"):
                    break
                time.sleep(0.01)
            assert record["status"] == "cancelled"
        finally:
            release.set()
            live.close()


# ---------------------------------------------------------------------------
# Batch records (unit)
# ---------------------------------------------------------------------------


class TestBatchRecord:
    def test_append_update_counts_done(self, tmp_path):
        from repro.service.batch import BatchRecord

        record = BatchRecord(path=tmp_path / "b.json")
        first = record.append_item("queued", cache_key="k0")
        second = record.append_item("cached", cache_key="k1", regex="<num>")
        assert (first, second) == (0, 1)
        assert len(record) == 2
        assert not record.done
        record.update_item(0, "solved", regex="Repeat(<num>,3)")
        assert record.done
        counts = record.counts()
        assert counts["solved"] == 1 and counts["cached"] == 1
        assert record.items[1]["regex"] == "<num>"

    def test_save_load_round_trip(self, tmp_path):
        from repro.service.batch import BatchRecord

        record = BatchRecord(path=tmp_path / "b.json")
        record.append_item("queued", cache_key="k0")
        record.append_item("failed", cache_key="", error="bad json")
        record.save()
        restored = BatchRecord.load(tmp_path / "b.json")
        assert restored.batch_id == record.batch_id
        assert restored.items == record.items

    def test_live_claims_are_not_persisted(self, tmp_path):
        # The restart-resume contract: a queued item whose job died with the
        # process must come back eligible for re-ingestion.
        from repro.service.batch import BatchRecord

        record = BatchRecord(path=tmp_path / "b.json")
        record.append_item("queued", cache_key="k0")
        record.mark_live(0)
        assert not record.needs_reingest(0)
        record.save()
        restored = BatchRecord.load(tmp_path / "b.json")
        assert restored.needs_reingest(0)

    def test_terminal_update_discards_live_claim(self, tmp_path):
        from repro.service.batch import BatchRecord

        record = BatchRecord()
        record.append_item("queued")
        record.mark_live(0)
        record.update_item(0, "solved")
        assert 0 not in record.live

    def test_release_reopens_queued_item(self):
        from repro.service.batch import BatchRecord

        record = BatchRecord()
        record.append_item("queued")
        record.mark_live(0)
        record.release(0)
        assert record.needs_reingest(0)

    def test_page_slices(self):
        from repro.service.batch import BatchRecord

        record = BatchRecord()
        for i in range(5):
            record.append_item("cached", cache_key=f"k{i}")
        page = record.page(offset=2, limit=2)
        assert [item["index"] for item in page["items"]] == [2, 3]
        assert page["total"] == 5 and page["done"]


class TestBatchStore:
    def test_create_persists_immediately(self, tmp_path):
        from repro.service.batch import BatchStore

        store = BatchStore(tmp_path / "batches")
        record = store.create()
        assert (tmp_path / "batches" / f"{record.batch_id}.json").is_file()
        assert store.get(record.batch_id) is record

    def test_faults_in_from_disk(self, tmp_path):
        # A "restarted" store (fresh instance, same directory) still serves
        # batches the previous process created.
        from repro.service.batch import BatchStore

        store = BatchStore(tmp_path / "batches")
        record = store.create()
        record.append_item("solved", cache_key="k", regex="<num>")
        record.save()
        reborn = BatchStore(tmp_path / "batches")
        assert len(reborn) == 0
        loaded = reborn.get(record.batch_id)
        assert loaded is not None
        assert loaded.items == record.items

    def test_unknown_id_is_none(self, tmp_path):
        from repro.service.batch import BatchStore

        store = BatchStore(tmp_path / "batches")
        assert store.get("f" * 32) is None


# ---------------------------------------------------------------------------
# Batch ingestion over HTTP
# ---------------------------------------------------------------------------


@pytest.fixture()
def batch_server(tmp_path):
    config = ServiceConfig(
        port=0,
        workers=2,
        cache_backend="json",
        cache_path=str(tmp_path / "cache"),
        batch_dir=str(tmp_path / "batches"),
        sketches=8,
    )
    live = start_server(config)
    yield live
    live.close()


@pytest.fixture()
def batch_client(batch_server):
    host, port = batch_server.server_address[:2]
    return ServiceClient(f"http://{host}:{port}")


def _batch_problems(count=3, tag="digits"):
    return [
        Problem(
            f"{n} {tag}",
            positive=["1" * n, "2" * n],
            negative=["a", "1" * (n + 4)],
            budget=10.0,
        ).to_dict()
        for n in range(2, 2 + count)
    ]


class TestBatchHttp:
    def test_submit_wait_and_paginate(self, batch_client):
        receipt = batch_client.submit_batch(_batch_problems(3))
        assert receipt["ingested"] == 3 and receipt["skipped"] == 0
        assert receipt["statuses"] == ["queued"] * 3
        summary = batch_client.wait_batch(receipt["batch_id"], timeout=60)
        assert summary["done"]
        assert summary["counts"]["failed"] == 0
        assert summary["counts"]["solved"] + summary["counts"]["unsolved"] == 3
        page = batch_client.batch_status(receipt["batch_id"], offset=1, limit=1)
        assert [item["index"] for item in page["items"]] == [1]
        assert page["items"][0]["cache_key"]

    def test_resume_skips_known_items(self, batch_client):
        problems = _batch_problems(3, tag="resumed digits")
        receipt = batch_client.submit_batch(problems[:2])
        batch_id = receipt["batch_id"]
        batch_client.wait_batch(batch_id, timeout=60)
        # Re-POST the full stream from the top: 2 known, 1 new.
        second = batch_client.submit_batch(problems, batch_id=batch_id)
        assert second["skipped"] == 2 and second["ingested"] == 1
        summary = batch_client.wait_batch(batch_id, timeout=60)
        assert summary["total"] == 3 and summary["counts"]["failed"] == 0

    def test_reingestion_hits_the_cache(self, batch_client):
        problems = _batch_problems(2, tag="cache digits")
        first = batch_client.submit_batch(problems)
        done = batch_client.wait_batch(first["batch_id"], timeout=60)
        solved = done["counts"]["solved"]
        second = batch_client.submit_batch(problems)
        summary = batch_client.wait_batch(second["batch_id"], timeout=60)
        assert summary["counts"]["cached"] >= min(1, solved)
        assert summary["counts"]["failed"] == 0

    def test_malformed_line_fails_only_that_item(self, batch_client):
        lines = [
            json.dumps(_batch_problems(1)[0]),
            "{not json",
            '{"positive": "not a list"}',
        ]
        receipt = batch_client.submit_batch(lines)
        assert receipt["statuses"][1] == "failed"
        assert receipt["statuses"][2] == "failed"
        summary = batch_client.wait_batch(receipt["batch_id"], timeout=60)
        assert summary["counts"]["failed"] == 2
        page = batch_client.batch_status(receipt["batch_id"])
        assert "error" in page["items"][1]

    def test_statically_unsatisfiable_item_fails_fast(self, batch_client):
        contradictory = Problem(
            "conflict", positive=["abc"], negative=["abc"], budget=5.0
        ).to_dict()
        receipt = batch_client.submit_batch([contradictory])
        assert receipt["statuses"] == ["failed"]
        page = batch_client.batch_status(receipt["batch_id"])
        assert "error" in page["items"][0]

    def test_offset_gap_is_conflict(self, batch_client):
        receipt = batch_client.submit_batch(_batch_problems(1))
        with pytest.raises(ServiceError) as info:
            batch_client.submit_batch(
                _batch_problems(1), batch_id=receipt["batch_id"], offset=5
            )
        assert info.value.status == 409
        assert info.value.code == "bad_offset"

    def test_offset_requires_batch_id(self, batch_client):
        with pytest.raises(ServiceError) as info:
            batch_client.submit_batch(_batch_problems(1), offset=1)
        assert info.value.status == 400

    def test_unknown_batch_404(self, batch_client):
        with pytest.raises(ServiceError) as info:
            batch_client.batch_status("e" * 32)
        assert info.value.status == 404
        assert info.value.code == "not_found"
        with pytest.raises(ServiceError) as info:
            batch_client.submit_batch(_batch_problems(1), batch_id="e" * 32)
        assert info.value.status == 404

    def test_bad_query_params_400(self, batch_server):
        host, port = batch_server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/batch?offset=nope",
            data=b"{}\n",
            method="POST",
            headers={"Content-Type": "application/x-ndjson"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400

    def test_stats_reports_batches(self, batch_client):
        batch_client.submit_batch(_batch_problems(1, tag="stats digits"))
        stats = batch_client.stats()
        assert stats["batches"]["tracked"] >= 1
        assert "backlog" in stats["batches"]


class TestBatchRestartResume:
    def test_stranded_queued_item_is_reingested(self, tmp_path):
        # Simulate the server dying mid-batch: build a record on disk with a
        # queued item and no live claim, then let a fresh state resume it.
        from repro.service.batch import BatchStore

        batch_dir = tmp_path / "batches"
        store = BatchStore(batch_dir)
        record = store.create()
        problems = _batch_problems(2, tag="restart digits")
        record.append_item("cached", cache_key="k0", regex="<num>")
        record.append_item("queued", cache_key="k1")
        record.save()

        config = ServiceConfig(
            port=0,
            workers=2,
            cache_backend="json",
            cache_path=str(tmp_path / "cache"),
            batch_dir=str(batch_dir),
        )
        state = ServiceState(config)
        try:
            body = ("\n".join(json.dumps(p) for p in problems) + "\n").encode()
            status, payload = state.handle_batch_submit(body, record.batch_id, 0)
            assert status == 202
            assert payload["skipped"] == 1  # the cached item
            assert payload["ingested"] == 1  # the stranded queued one
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                code, page = state.handle_batch_get(record.batch_id)
                assert code == 200
                if page["done"]:
                    break
                time.sleep(0.05)
            assert page["done"]
            assert page["counts"]["failed"] == 0
            assert page["items"][0]["status"] == "cached"
            assert page["items"][1]["status"] in ("solved", "unsolved")
        finally:
            state.close()


class TestShutdownOrdering:
    def test_feeder_stops_before_pool_closes_and_strands_are_resumable(
        self, tmp_path
    ):
        # SIGTERM contract: the batch feeder thread must be dead before the
        # pool starts closing (nothing may enter a stopping queue), and any
        # backlogged items must land stranded-``queued`` on disk, eligible
        # for re-ingestion by the next process.
        from repro.service.batch import BatchRecord

        config = ServiceConfig(
            port=0,
            workers=1,
            queue_size=1,
            cache_backend="null",
            cache_path=str(tmp_path / "cache"),
            batch_dir=str(tmp_path / "batches"),
        )
        state = ServiceState(config)
        release = threading.Event()
        state.pool.close()
        factory = _blocking_session_factory(release)
        state.pool = WorkerPool(lambda: factory(), workers=1, queue_size=1)

        feeder_alive_at_pool_close = []
        original_close = state.pool.close

        def recording_close(timeout=5.0):
            feeder = state._batch_feeder_thread
            feeder_alive_at_pool_close.append(
                feeder is not None and feeder.is_alive()
            )
            return original_close(timeout)

        state.pool.close = recording_close
        try:
            # More items than worker+queue capacity: some stay in the
            # feeder's backlog when shutdown begins.
            body = (
                "\n".join(json.dumps(p) for p in _batch_problems(4, tag="shutdown"))
                + "\n"
            ).encode()
            status, payload = state.handle_batch_submit(body)
            assert status == 202
            batch_id = payload["batch_id"]
        finally:
            state.close()
            release.set()

        assert feeder_alive_at_pool_close == [False]
        # Reloaded from disk (no live claims survive a restart), the
        # unfinished items are stranded-queued and re-ingestable.
        record = BatchRecord.load(tmp_path / "batches" / f"{batch_id}.json")
        stranded = [
            i for i in range(len(record)) if record.needs_reingest(i)
        ]
        assert stranded  # at least the backlogged items
        fresh = ServiceState(config)
        try:
            status, resumed = fresh.handle_batch_submit(body, batch_id, 0)
            assert status == 202
            assert resumed["ingested"] == len(stranded)
            assert resumed["skipped"] == len(record) - len(stranded)
        finally:
            fresh.close()

    def test_close_is_idempotent(self, tmp_path):
        config = ServiceConfig(
            port=0, workers=1, cache_backend="null", cache_path=str(tmp_path)
        )
        state = ServiceState(config)
        state.close()
        state.close()  # SIGTERM handler + finally block may both call it


class TestCorpusIngestCliResume:
    def test_resume_reingests_stranded_queued_items(
        self, batch_server, tmp_path, capsys
    ):
        # Client finished uploading, server died before solving: the client
        # state file says "everything sent", but the reloaded record has a
        # queued item with no job behind it.  `corpus ingest` must notice
        # and re-POST the stream so the stranded item actually solves.
        from repro.cli import main

        host, port = batch_server.server_address[:2]
        base = f"http://{host}:{port}"
        problems = _batch_problems(2, tag="cli restart digits")

        record = batch_server.state.batches.create()
        record.append_item("cached", cache_key="k0", regex="<num>")
        record.append_item("queued", cache_key="k1")  # stranded: not live
        record.save()

        source = tmp_path / "problems.ndjson"
        source.write_text("\n".join(json.dumps(p) for p in problems) + "\n")
        state_path = tmp_path / "ingest-state.json"
        state_path.write_text(
            json.dumps(
                {"batch_id": record.batch_id, "offset": 2, "server": base}
            )
        )

        code = main(
            [
                "corpus",
                "ingest",
                str(source),
                "--server",
                base,
                "--state",
                str(state_path),
                "--wait-timeout",
                "60",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "1 stranded item(s)" in captured.err
        assert record.status_of(0) == "cached"  # terminal item untouched
        assert record.status_of(1) in ("solved", "unsolved")
