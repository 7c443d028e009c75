"""Persistent, Problem-keyed result cache.

Identical regex-synthesis requests are extremely common (the same "phone
number"/"date"/"decimal" problems arrive from many users), and a REGEL-style
multi-modal solve is expensive — so deduplicating solved problems is the
cheapest scaling lever the service has.  The cache is content-addressed:
the key is :meth:`repro.api.Problem.cache_key` (SHA-256 of the canonical
problem JSON) and the value is a completed :class:`~repro.api.RunReport`
dict.

:class:`ResultCache` keeps one ``<key>.json`` file per entry in a directory
and tracks recency through file mtimes: it is stdlib-only, safe under the
service's thread pool, trivially inspectable (``cat``-able) and
rsync-friendly.

The cache enforces an LRU bound of ``max_entries`` and counts hits/misses/
stores/evictions, which flow into ``GET /v1/stats``.  The entry count is kept
in memory (one directory scan at construction, re-synced by the scan that
eviction does anyway), so a store below the bound never lists the directory.
Only *solved* reports are stored: cancelled runs answer a different
question, and an unsolved-within-budget outcome depends on machine load at
the time — caching it would permanently poison the entry for a problem that
a calmer retry would solve.

The cache is an optimisation, so it is never allowed to become a liability:
a **corrupt entry** (torn write, bit rot, hand-edited file) is quarantined —
moved out of the store, counted in ``quarantined`` — and answered as a miss;
a **failing disk** (directory gone or unwritable) degrades instead of
erroring: after ``breaker_threshold`` consecutive failures a circuit breaker
opens and every operation short-circuits to the miss/skip path until a
``breaker_cooldown``-spaced probe succeeds again.  ``/v1/healthz`` reports
the open breaker as ``degraded``.  The deterministic chaos suite drives both
paths through the ``cache.read`` / ``cache.write`` fault points
(:mod:`repro.faults`).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional

from repro.faults import fault_point


class CacheCorruption(Exception):
    """A stored entry failed to decode; the cache has quarantined it."""


class ResultCache:
    """One JSON file per cached report, LRU via file mtimes, with a breaker."""

    def __init__(
        self,
        path: "str | Path",
        max_entries: int = 1024,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 30.0,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self._lock = threading.Lock()
        #: ``*.json`` files in the store (mutated under ``self._lock``).
        self._entries = sum(1 for _ in self.path.glob("*.json"))
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        #: Corrupt entries detected, removed, and answered as misses.
        self.quarantined = 0
        #: Disk failures absorbed on the read / write path.
        self.read_errors = 0
        self.write_errors = 0
        #: Circuit-breaker state (all mutated under ``self._lock``).  Error
        #: streaks are tracked per path: a cache whose reads always fail is
        #: degraded even while its write-throughs keep succeeding, so a
        #: write success must not reset the read streak (or vice versa).
        self.trips = 0
        self._consecutive_errors = {"read": 0, "write": 0}
        self._opened_at: Optional[float] = None

    # Storage (callers hold self._lock) --------------------------------------

    def _entry(self, key: str) -> Path:
        if not key.isalnum():
            # Keys are hex digests; anything else must not touch the fs.
            raise ValueError(f"malformed cache key: {key!r}")
        return self.path / f"{key}.json"

    def _quarantine(self, entry: Path) -> None:
        """Move a corrupt entry aside (``.quarantined`` never matches the
        ``*.json`` globs, so it is out of the store but kept for inspection)."""
        try:
            os.replace(entry, entry.with_suffix(".quarantined"))
        except OSError:
            try:
                entry.unlink()
            except OSError:
                return
        self._entries -= 1

    def _load(self, key: str) -> Optional[Dict[str, Any]]:
        entry = self._entry(key)
        try:
            text = entry.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None  # a plain miss, not a disk failure
        try:
            report = json.loads(text)
        except ValueError:
            report = None
        if not isinstance(report, dict):
            # Torn write or external corruption: quarantine and miss.
            self._quarantine(entry)
            raise CacheCorruption(key)
        try:
            os.utime(entry)  # refresh recency; entry may vanish externally
        except OSError:
            pass
        return report

    def _save(self, key: str, report: Dict[str, Any]) -> None:
        entry = self._entry(key)
        new = not entry.exists()
        tmp = entry.with_suffix(".tmp")
        tmp.write_text(json.dumps(report), encoding="utf-8")
        # The commit point: a crash (or injected fault) before the rename
        # leaves only the ``.tmp`` debris — readers never see a torn entry.
        fault_point("cache.write")
        os.replace(tmp, entry)
        if new:
            self._entries += 1

    def _evict_lru(self) -> int:
        """Drop least-recently-used entries down to 90% of the bound.

        Evicting in batches instead of one at a time keeps the steady-state
        write path cheap: only a store that crosses the bound scans the
        directory, and that scan re-syncs the in-memory entry count.
        """
        if self._entries <= self.max_entries:
            return 0
        entries = list(self.path.glob("*.json"))
        self._entries = len(entries)
        if len(entries) <= self.max_entries:
            return 0
        entries.sort(key=lambda path: path.stat().st_mtime)
        low_water = max(1, (self.max_entries * 9) // 10)
        evicted = 0
        for entry in entries[: len(entries) - low_water]:
            try:
                entry.unlink(missing_ok=True)
            except OSError:
                continue
            evicted += 1
        self._entries -= evicted
        return evicted

    def __len__(self) -> int:
        with self._lock:
            return self._entries

    # Circuit breaker (callers hold self._lock) ------------------------------

    def _breaker_open(self) -> bool:
        """True while the disk is benched; cooldown expiry allows a probe."""
        if self._opened_at is None:
            return False
        return time.monotonic() - self._opened_at < self.breaker_cooldown

    def _note_error(self, path: str) -> None:
        self._consecutive_errors[path] += 1
        if self._opened_at is not None:
            # A half-open probe failed: re-arm the cooldown.
            self._opened_at = time.monotonic()
        elif self._consecutive_errors[path] >= self.breaker_threshold:
            self.trips += 1
            self._opened_at = time.monotonic()

    def _note_ok(self, path: str) -> None:
        self._consecutive_errors[path] = 0
        if self._opened_at is not None and not any(
            streak >= self.breaker_threshold
            for streak in self._consecutive_errors.values()
        ):
            # A half-open probe succeeded and no other path is still past
            # the threshold: close the breaker.
            self._opened_at = None

    # Public API -------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached report for ``key``, or None — never an exception.

        Corrupt entries count as ``quarantined`` misses; disk failures as
        ``read_errors`` misses (feeding the breaker).  A malformed *key* is a
        caller bug and still raises :class:`ValueError`.
        """
        with self._lock:
            if self._breaker_open():
                self.misses += 1
                return None
            try:
                fault_point("cache.read")
                report = self._load(key)
            except ValueError:
                raise
            except CacheCorruption:
                # The disk worked — the bad entry was detected and removed —
                # so corruption never counts against the breaker.
                self.quarantined += 1
                self.misses += 1
                self._note_ok("read")
                return None
            except Exception:
                self.read_errors += 1
                self.misses += 1
                self._note_error("read")
                return None
            self._note_ok("read")
            if report is None:
                self.misses += 1
            else:
                self.hits += 1
            return report

    def put(self, key: str, report: Dict[str, Any]) -> None:
        """Store a completed report; a failing disk degrades to a no-op.

        The cache is write-through from the pool's completion hook — a lost
        store costs a future re-solve, never correctness — so write failures
        are absorbed (counted, breaker-fed), not raised.
        """
        with self._lock:
            if self._breaker_open():
                return
            try:
                self._save(key, report)
                self.stores += 1
                self.evictions += self._evict_lru()
            except ValueError:
                raise
            except Exception:
                self.write_errors += 1
                self._note_error("write")
                return
            self._note_ok("write")

    def healthy(self) -> bool:
        """False while the circuit breaker is open (``/v1/healthz: degraded``)."""
        with self._lock:
            return not self._breaker_open()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "backend": "json",
                "entries": self._entries,
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
                "quarantined": self.quarantined,
                "read_errors": self.read_errors,
                "write_errors": self.write_errors,
                "breaker": {
                    "state": "open" if self._breaker_open() else "closed",
                    "trips": self.trips,
                    "consecutive_errors": max(self._consecutive_errors.values()),
                    "threshold": self.breaker_threshold,
                    "cooldown_seconds": self.breaker_cooldown,
                },
            }
