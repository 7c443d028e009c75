"""Persistent batch records for bulk ingestion.

A *batch* is an ordered sequence of Problems identified by their position in
the submitted NDJSON stream.  The :class:`BatchRecord` tracks one status per
item — ``queued → solved | unsolved | failed``, or ``cached`` when the
result cache short-circuits the solve entirely — and persists every
transition itself, so ingestion survives both client and server restarts:

* a client killed mid-upload re-POSTs the same NDJSON against the same batch
  id; every index the record already knows is skipped (``resume``),
* a server killed mid-batch reloads records lazily from disk; items stranded
  in ``queued`` (their jobs died with the process) are re-ingested on the
  next POST instead of being skipped, because no live job backs them.

The same record format backs the ``regel batch --record`` CLI path, so a
local run and a service run of one corpus file produce interchangeable
artifacts.

Each transition is one append to a sidecar **journal**
(``<batch_id>.journal``, one JSON object per line with a monotonic ``seq``
and a ``ts``).  The record alone writes its atomic (write-then-rename) JSON
**snapshot**: as a compaction, once the journal entries since the last
snapshot outnumber the items it holds (after 1, 3, 7, … transitions of a
growing record, so snapshot bytes stay proportional to journal bytes), and
as the fallback when an append fails.  :meth:`BatchRecord.load` replays the
journal suffix the snapshot missed, or the whole journal when the snapshot
is torn or gone.  An undecodable journal line (an append a crash
interrupted) is skipped, and the next append starts on a fresh line.  The
``batch.persist`` / ``batch.load`` fault points (:mod:`repro.faults`) let
the chaos suite kill these writes mid-flight.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.faults import fault_point

#: Per-item lifecycle states.
ITEM_QUEUED = "queued"
ITEM_SOLVED = "solved"
ITEM_UNSOLVED = "unsolved"
ITEM_FAILED = "failed"
ITEM_CACHED = "cached"

ITEM_STATUSES = (ITEM_QUEUED, ITEM_SOLVED, ITEM_UNSOLVED, ITEM_FAILED, ITEM_CACHED)

#: Terminal item states (everything but ``queued``).
TERMINAL_ITEM_STATUSES = frozenset(ITEM_STATUSES) - {ITEM_QUEUED}


def _atomic_write(path: Path, payload: Dict[str, Any]) -> None:
    """Write-then-rename so a crash never leaves a half-written record."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=0, sort_keys=True), encoding="utf-8")
    # The commit point: a crash (or injected fault) here leaves the previous
    # snapshot untouched — readers see old-and-complete, never torn.
    fault_point("batch.persist")
    os.replace(tmp, path)


def _journal_path(path: Path) -> Path:
    return path.with_suffix(".journal")


def _read_journal(path: Path) -> Tuple[List[Dict[str, Any]], bool]:
    """Parse journal entries in order, and tell whether the file ends mid-line.

    An undecodable line is an append a crash (or an injected fault)
    interrupted; it is skipped.  The next append starts on a fresh line, so
    every entry after a torn line is intact and still read.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return [], False
    entries: List[Dict[str, Any]] = []
    for line in text.splitlines():
        try:
            entry = json.loads(line)
        except ValueError:  # torn, or blank
            continue
        if isinstance(entry, dict) and isinstance(entry.get("seq"), int):
            entries.append(entry)
    return entries, bool(text) and not text.endswith("\n")


class BatchRecord:
    """One batch's per-item statuses, with JSON-file persistence."""

    def __init__(self, batch_id: Optional[str] = None, path: Optional[Path] = None):
        self.batch_id = batch_id or uuid.uuid4().hex
        self.path = path
        self.created = time.time()
        self.updated = self.created
        #: ``{"index", "status", "cache_key", "regex"?, "error"?}`` per item,
        #: list position == item index.
        self.items: List[Dict[str, Any]] = []
        #: Indexes backed by a live job *in this process* — deliberately not
        #: persisted: after a restart nothing is live, which is exactly what
        #: makes stranded ``queued`` items eligible for re-ingestion.
        self.live: set[int] = set()
        #: Highest journal sequence number written (or replayed) so far.
        self.journal_seq = 0
        #: ``journal_seq`` and item count of the last snapshot on disk.
        self._snapshot_seq = 0
        self._snapshot_len = 0
        #: The journal may end in a torn line (found on load, or left by a
        #: failed append): the next append starts on a fresh line.
        self._torn_tail = False
        #: Journal appends and snapshot writes absorbed after a failure.
        self.persist_errors = 0
        #: True when :meth:`load` had to replay the journal (snapshot stale,
        #: torn, or missing) — surfaced via :class:`BatchStore` stats.
        self.recovered = False
        self._lock = threading.RLock()

    # -- mutation ------------------------------------------------------------

    def _persist(self, index: int, item: Dict[str, Any]) -> None:
        """Append one journal entry (caller holds ``self._lock``).

        Compacting only once the journal outgrows the last snapshot keeps
        snapshot bytes proportional to journal bytes.  Failures are absorbed:
        the record must never fail an ingest over its own bookkeeping.
        """
        if self.path is None:
            return
        journal = _journal_path(Path(self.path))
        self.journal_seq += 1
        lines = "\n" if self._torn_tail else ""
        if self.journal_seq == 1 and not journal.exists():
            header = {"seq": 0, "batch_id": self.batch_id, "ts": self.created}
            lines += json.dumps(header) + "\n"
        entry = {"seq": self.journal_seq, "index": index, "item": item, "ts": self.updated}
        lines += json.dumps(entry, sort_keys=True) + "\n"
        cut = len(lines) // 2
        try:
            with open(journal, "a", encoding="utf-8") as handle:
                handle.write(lines[:cut])
                # A fault here is a crash mid-append: it leaves a torn line.
                fault_point("batch.persist")
                handle.write(lines[cut:])
        except OSError:
            self.persist_errors += 1
            self._torn_tail = True
            self.save()
            return
        self._torn_tail = False
        if self.journal_seq - self._snapshot_seq > self._snapshot_len:
            self.save()

    def append_item(self, status: str, cache_key: str = "", **extra: Any) -> int:
        """Add the next item; returns its index."""
        with self._lock:
            index = len(self.items)
            item = {"index": index, "status": status, "cache_key": cache_key}
            item.update({k: v for k, v in extra.items() if v is not None})
            self.items.append(item)
            self.updated = time.time()
            self._persist(index, dict(item))
            return index

    def update_item(self, index: int, status: str, **extra: Any) -> None:
        with self._lock:
            item = self.items[index]
            item["status"] = status
            item.update({k: v for k, v in extra.items() if v is not None})
            if status in TERMINAL_ITEM_STATUSES:
                self.live.discard(index)
            self.updated = time.time()
            self._persist(index, dict(item))

    def mark_live(self, index: int) -> None:
        with self._lock:
            self.live.add(index)

    def release(self, index: int) -> None:
        """Drop the live-job claim on a still-``queued`` item (cancelled job):
        the next resume POST re-ingests it instead of skipping it."""
        with self._lock:
            self.live.discard(index)

    def status_of(self, index: int) -> str:
        with self._lock:
            return self.items[index]["status"]

    def needs_reingest(self, index: int) -> bool:
        """Queued but with no live job in this process (e.g. after restart)."""
        with self._lock:
            return (
                index < len(self.items)
                and self.items[index]["status"] == ITEM_QUEUED
                and index not in self.live
            )

    # -- views ---------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self.items)

    def counts(self) -> Dict[str, int]:
        with self._lock:
            out = {status: 0 for status in ITEM_STATUSES}
            for item in self.items:
                out[item["status"]] = out.get(item["status"], 0) + 1
            return out

    @property
    def done(self) -> bool:
        """Every item reached a terminal state."""
        with self._lock:
            return all(
                item["status"] in TERMINAL_ITEM_STATUSES for item in self.items
            )

    def summary(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "batch_id": self.batch_id,
                "total": len(self.items),
                "done": self.done,
                "counts": self.counts(),
                "created": self.created,
                "updated": self.updated,
            }

    def page(self, offset: int = 0, limit: int = 100) -> Dict[str, Any]:
        """Summary plus an item slice (offset pagination for ``GET``)."""
        with self._lock:
            payload = self.summary()
            payload["offset"] = offset
            payload["limit"] = limit
            payload["items"] = [dict(item) for item in self.items[offset : offset + limit]]
            return payload

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "batch_id": self.batch_id,
                "created": self.created,
                "updated": self.updated,
                "journal_seq": self.journal_seq,
                "items": [dict(item) for item in self.items],
            }

    def save(self) -> None:
        """Snapshot to disk; failures are absorbed (the journal has the data)."""
        if self.path is None:
            return
        with self._lock:
            try:
                _atomic_write(Path(self.path), self.to_dict())
            except OSError:
                self.persist_errors += 1
            else:
                self._snapshot_seq, self._snapshot_len = self.journal_seq, len(self.items)

    @classmethod
    def open(cls, path: "Path | str", create: bool = False) -> Optional["BatchRecord"]:
        """The record at ``path``, loaded when a snapshot or a journal exists
        there (a journal alone is a whole record); otherwise a fresh record
        bound to ``path`` if ``create``, else None."""
        path = Path(path)
        if path.is_file() or _journal_path(path).is_file():
            return cls.load(path)
        return cls(path=path) if create else None

    @classmethod
    def load(cls, path: "Path | str") -> "BatchRecord":
        """Load a record: snapshot + journal-suffix replay.

        A torn or missing snapshot falls back to a full journal rebuild;
        only when *both* are unusable does this raise (the caller answers
        404).  ``record.recovered`` is True whenever the journal contributed
        state the snapshot lacked.
        """
        path = Path(path)
        fault_point("batch.load")
        entries, torn_tail = _read_journal(_journal_path(path))
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            record = cls(batch_id=data["batch_id"], path=path)
            record.created = data.get("created", record.created)
            record.updated = data.get("updated", record.updated)
            record.items = [dict(item) for item in data.get("items", [])]
            seq = data.get("journal_seq", 0)
            record.journal_seq = seq if isinstance(seq, int) else 0
            record._snapshot_seq = record.journal_seq
            record._snapshot_len = len(record.items)
        except (ValueError, OSError, KeyError, TypeError):
            if not entries:
                raise
            batch_id = next(
                (e["batch_id"] for e in entries if isinstance(e.get("batch_id"), str)),
                path.stem,
            )
            record = cls(batch_id=batch_id, path=path)
            record.created = record.updated = entries[0].get("ts", record.created)
            record.recovered = True
        record._torn_tail = torn_tail

        for entry in entries:
            seq = entry["seq"]
            if seq <= record.journal_seq:
                continue
            index = entry.get("index")
            item = entry.get("item")
            if not isinstance(index, int) or not isinstance(item, dict):
                continue
            # Each entry carries the item's full state, so later-wins replay
            # is just assignment; gaps (from absorbed journal errors) only
            # need queued placeholders to keep list position == index.
            for filler in range(len(record.items), index + 1):
                record.items.append({"index": filler, "status": ITEM_QUEUED, "cache_key": ""})
            record.items[index] = dict(item)
            record.journal_seq = seq
            record.recovered = True
            record.updated = entry.get("ts", record.updated)
        return record


class BatchStore:
    """Registry of batch records persisted under one directory.

    In-memory records are authoritative while the process lives; unknown ids
    are faulted in from ``<dir>/<batch_id>.json`` so a restarted server still
    answers ``GET /v1/batch/{id}`` for every batch it ever accepted.
    """

    def __init__(self, directory: "Path | str"):
        self.directory = Path(directory)
        self._records: Dict[str, BatchRecord] = {}
        self._lock = threading.Lock()
        #: Records rebuilt (fully or partially) from their journal on load.
        self.recovered = 0
        #: Records whose snapshot *and* journal were unusable (answered 404).
        self.load_errors = 0

    def _path_for(self, batch_id: str) -> Path:
        return self.directory / f"{batch_id}.json"

    def create(self) -> BatchRecord:
        self.directory.mkdir(parents=True, exist_ok=True)
        record = BatchRecord()
        record.path = self._path_for(record.batch_id)
        with self._lock:
            self._records[record.batch_id] = record
        record.save()
        return record

    def get(self, batch_id: str) -> Optional[BatchRecord]:
        with self._lock:
            record = self._records.get(batch_id)
        if record is not None:
            return record
        try:
            record = BatchRecord.open(self._path_for(batch_id))
        except (ValueError, OSError, KeyError, TypeError):
            with self._lock:
                self.load_errors += 1
            return None
        if record is None:
            return None
        with self._lock:
            if record.recovered:
                self.recovered += 1
            # Lost the race to another loader: keep the first one.
            return self._records.setdefault(batch_id, record)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "records": len(self._records),
                "recovered": self.recovered,
                "load_errors": self.load_errors,
            }
