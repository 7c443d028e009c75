"""Thread-safety regression tests for the intern tables and shared caches.

The worker pool runs one full synthesis session per worker *thread*, so every
process-wide cache — intern tables, the DSL printer cache, the approximation
and encoding caches, the analysis fact caches — is mutated concurrently.
These tests hammer that path under ``REPRO_SANITIZE=1`` (which turns any
mutation outside :data:`repro.caches.CACHE_LOCK` into an immediate
``AssertionError``) and then verify the intern tables are still consistent:
every live entry maps its field tuple to the one canonical object.
"""

import threading

import pytest

from repro import caches
from repro.api import NlSketchProvider, Problem, Session
from repro.dsl.ast import NODE_CLASSES, CharClass, Concat, KleeneStar, Repeat
from repro.dsl.charclass import CharClassKind
from repro.dsl.intern import check_intern_tables
from repro.dsl.printer import to_dsl_string
from repro.service.pool import Job, WorkerPool


@pytest.fixture
def sanitize():
    # The env var is only read at import time (see caches.set_sanitize), so
    # in-process tests toggle the flag directly.
    previous = caches.set_sanitize(True)
    yield
    caches.set_sanitize(previous)


#: Small, distinct problems so each worker thread builds its own regex trees.
_HAMMER_PROBLEMS = [
    Problem("3 digits", positive=["123", "456"], negative=["12", "abcd"], budget=1.5),
    Problem("2 capital letters", positive=["AB", "XY"], negative=["A", "ab"], budget=1.5),
    Problem("digits then a dash", positive=["12-", "3-"], negative=["12"], budget=1.5),
    Problem("one lowercase letter", positive=["a", "z"], negative=["1", "ab"], budget=1.5),
    Problem("2 digits", positive=["12", "99"], negative=["1", "123"], budget=1.5),
    Problem("letters", positive=["ab", "xyz"], negative=["1", "a1"], budget=1.5),
    Problem("a digit then a letter", positive=["1a", "9z"], negative=["a1"], budget=1.5),
    Problem("capitals then digits", positive=["AB12", "X9"], negative=["12AB"], budget=1.5),
]


def _make_session() -> Session:
    return Session(provider=NlSketchProvider(num_sketches=6))


class TestPoolHammer:
    def test_eight_worker_pool_under_sanitizer(self, sanitize):
        # Eight worker threads solving eight distinct problems concurrently:
        # every intern table and module-level cache is hit from all of them
        # at once.  The sanitizer turns an unlocked cache mutation into an
        # AssertionError inside the worker, which surfaces as a failed job.
        pool = WorkerPool(_make_session, workers=8, queue_size=16)
        jobs = [Job(problem) for problem in _HAMMER_PROBLEMS]
        try:
            for job in jobs:
                pool.submit(job)
            for job in jobs:
                assert job.wait(timeout=60.0), "hammer job did not finish"
        finally:
            pool.close()
        failures = [job.error for job in jobs if job.status == "failed"]
        assert not failures, f"worker jobs failed under the sanitizer: {failures}"
        # The races this guards against *lose* inserts: two threads intern the
        # same key and keep different objects.  The consistency check re-runs
        # every constructor and demands the identical object back.
        assert check_intern_tables(*NODE_CLASSES) > 0


class TestInternRaces:
    def test_concurrent_interning_yields_one_object(self):
        # All threads construct the same (deep) tree through a barrier so the
        # intern-table misses happen as close to simultaneously as possible.
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads
        errors = []

        def build(slot: int) -> None:
            try:
                barrier.wait(timeout=10.0)
                node = Concat(
                    Repeat(CharClass(CharClassKind.NUM), 4 + slot % 2),
                    KleeneStar(CharClass(CharClassKind.LET)),
                )
                # Touch the printer cache from every thread too.
                to_dsl_string(node)
                results[slot] = node
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=build, args=(slot,)) for slot in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert all(result is not None for result in results)
        # slot%2 splits the threads across two distinct trees; within each
        # group every thread must hold the *same* canonical object.
        evens = {id(results[slot]) for slot in range(0, n_threads, 2)}
        odds = {id(results[slot]) for slot in range(1, n_threads, 2)}
        assert len(evens) == 1 and len(odds) == 1
        assert check_intern_tables(*NODE_CLASSES) > 0


class TestSanitizer:
    def test_unlocked_mutation_raises(self, sanitize):
        guarded = caches.GuardedDict()
        with pytest.raises(AssertionError):
            guarded["key"] = "value"

    def test_locked_mutation_passes(self, sanitize):
        guarded = caches.GuardedDict()
        assert caches.cache_insert(guarded, "key", "value") == "value"
        # A racing second insert keeps the first (winning) entry.
        assert caches.cache_insert(guarded, "key", "other") == "value"

    def test_unlocked_mutation_passes_when_off(self):
        previous = caches.set_sanitize(False)
        try:
            guarded = caches.GuardedDict()
            guarded["key"] = "value"  # no lock, no complaint
            assert guarded["key"] == "value"
        finally:
            caches.set_sanitize(previous)

    def test_every_registered_cache_is_guarded(self):
        # Importing the package registers every shared cache; the registry is
        # the whitelist tools/check_invariants.py enforces, so everything in
        # it must actually be a guarded container.
        import repro.analysis  # noqa: F401 - ensure analysis caches register
        import repro.synthesis.approximate  # noqa: F401
        import repro.synthesis.encode  # noqa: F401

        registry = caches.registered_caches()
        assert len(registry) >= 20  # intern tables + module caches
        guarded_types = (
            caches.GuardedDict,
            caches.GuardedWeakKeyDictionary,
            caches.GuardedWeakValueDictionary,
        )
        for name, cache in registry.items():
            assert isinstance(cache, guarded_types), name
