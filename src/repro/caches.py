"""Registry and synchronisation for the process-global caches.

Interning (PR 3) made every AST node canonical, which in turn made a family
of module-level, intern-keyed caches profitable: per-subtree approximations
(:mod:`repro.synthesis.approximate`), Figure-13 encodings
(:mod:`repro.synthesis.encode`), partial sizes, printed DSL strings, and the
static-analysis facts (:mod:`repro.analysis`).  The service's worker pool
(:mod:`repro.service.pool`) shares those caches across N threads, so every
mutation must be synchronised — two racing inserts into a weak dictionary can
otherwise corrupt its bookkeeping or hand two different "canonical" objects
to two threads and break identity equality process-wide.

The rules this module enforces:

* every process-global cache is *registered* here (``register_cache``), so
  tooling — ``tools/check_invariants.py``, diagnostics, tests — has one
  authoritative list of the mutable module state that is allowed to exist;
* reads stay lock-free (dict reads are safe under the GIL, and a published
  entry never changes: the caches are memo tables of pure functions);
* writes go through :func:`cache_insert` / the :data:`CACHE_LOCK`, which
  serialises the insert and keeps a racing winner;
* ``REPRO_SANITIZE=1`` turns on the race sanitizer: the cache containers
  assert on any mutation performed *without* holding :data:`CACHE_LOCK` — an
  unsynchronised-mutation detector for tests and debugging.  Like ASan, the
  flag is read once at process start (probing the environment on every
  insert showed up in engine profiles); in-process tests toggle it with
  :func:`set_sanitize`.
"""

from __future__ import annotations

import os
import threading
import weakref
from _weakref import _remove_dead_weakref  # type: ignore[attr-defined]
from typing import Any, Dict, MutableMapping, TypeVar

K = TypeVar("K")
V = TypeVar("V")

#: The single lock guarding mutation of every registered cache.  One process-
#: wide lock is deliberate: inserts only happen on cache *misses* (rare once
#: warm) and a single lock keeps lock-ordering trivial.
CACHE_LOCK = threading.RLock()

_REGISTRY: Dict[str, MutableMapping[Any, Any]] = {}


_SANITIZE = os.environ.get("REPRO_SANITIZE") == "1"


def set_sanitize(enabled: bool) -> bool:
    """Toggle the race sanitizer in-process; returns the previous value.

    The environment variable is only read at import time (a per-insert
    environment probe cost ~15% of engine wall clock), so tests that want
    the sanitizer mid-process use this instead of ``monkeypatch.setenv``.
    """
    global _SANITIZE
    previous = _SANITIZE
    _SANITIZE = enabled
    return previous


def assert_synchronized() -> None:
    """In sanitize mode, assert the calling thread holds :data:`CACHE_LOCK`."""
    if _SANITIZE and not CACHE_LOCK._is_owned():  # type: ignore[attr-defined]
        raise AssertionError(
            "unsynchronized cache mutation: CACHE_LOCK not held (REPRO_SANITIZE=1)"
        )


# The guarded containers test the module-global flag inline rather than
# calling assert_synchronized(): a function call per mutation is measurable
# on the interning hot path, a global load is not.

class GuardedDict(dict):
    """A plain-dict cache that detects unsynchronised mutation."""

    def __setitem__(self, key: Any, value: Any) -> None:
        if _SANITIZE:
            assert_synchronized()
        super().__setitem__(key, value)

    def __delitem__(self, key: Any) -> None:
        if _SANITIZE:
            assert_synchronized()
        super().__delitem__(key)


class GuardedWeakKeyDictionary(weakref.WeakKeyDictionary):
    """A weak-key cache that detects unsynchronised mutation."""

    def __setitem__(self, key: Any, value: Any) -> None:
        if _SANITIZE:
            assert_synchronized()
        super().__setitem__(key, value)

    def __delitem__(self, key: Any) -> None:
        if _SANITIZE:
            assert_synchronized()
        super().__delitem__(key)


class WeakEntry(weakref.ref):
    """A weak reference that carries its table key: one intern-table entry."""

    __slots__ = ("key",)


class GuardedWeakValueDictionary(GuardedDict):
    """A flat weak-value table (intern-table shape) that detects unsynchronised mutation.

    Each key maps to a :class:`WeakEntry` for its value, never to the value
    itself, so the table keeps nothing alive.  Build entries as
    ``entry = WeakEntry(value, table.remove); entry.key = key``: all entries
    of a table share its one cleanup callback :attr:`remove`, which runs
    when a value dies and deletes the key only while it still maps to a dead
    entry.  A live entry inserted for the same key in the meantime (a racing
    thread re-interning the structure) survives the late cleanup.  The
    callback needs no lock: the conditional delete is one C call, atomic
    under the GIL.
    """

    def __init__(self) -> None:
        super().__init__()

        def remove(entry: WeakEntry, table: "GuardedWeakValueDictionary" = self) -> None:
            _remove_dead_weakref(table, entry.key)

        self.remove = remove


def register_cache(name: str, cache: MutableMapping[Any, Any]) -> MutableMapping[Any, Any]:
    """Register a process-global cache under a stable dotted name.

    Returns the cache (so registration can wrap the defining assignment).
    Registering the same name twice replaces the entry — module reloads in
    tests do that legitimately.
    """
    with CACHE_LOCK:
        _REGISTRY[name] = cache
    return cache


def registered_caches() -> Dict[str, MutableMapping[Any, Any]]:
    """A snapshot of the registry (diagnostics, invariant tooling, tests)."""
    with CACHE_LOCK:
        return dict(_REGISTRY)


def cache_insert(cache: MutableMapping[K, V], key: K, value: V) -> V:
    """Publish ``cache[key] = value`` under the lock, keeping a racing winner.

    The caches are memo tables of pure functions, so when two threads race to
    compute the same entry either value is correct — but exactly *one* must
    win and both threads must observe it.  Returns the entry that ended up in
    the cache (the racing winner's, when there was one).
    """
    with CACHE_LOCK:
        existing = cache.get(key)
        if existing is not None:
            return existing
        cache[key] = value
    return value
