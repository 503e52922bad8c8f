"""Content-addressed, file-backed persistent verdict store (L2 tier).

:class:`DecompositionStore` keeps finished passivity verdicts on disk, keyed
exactly like the in-memory :class:`~repro.engine.DecompositionCache` keys
them: by the SHA-256 *verdict key* of one ``check_passivity`` call (system
fingerprint, method, runner and exact options, see
:func:`~repro.engine.api.verdict_key`).  Attached to a cache as its
``store=``, it makes a verdict compute-once across *processes* and service
restarts, not just within one: an L1 verdict miss falls through to the
store, and every computed verdict is written back.  Decomposition
intermediates live in L1 only — a verdict answers every repeat they could.

Design (stdlib + NumPy only):

* **Directory-sharded blobs.**  A verdict lives at
  ``objects/<key[:2]>/<key>.verdict.npz`` — the two-character shard keeps
  any single directory small under millions of entries.
* **Atomic writes.**  Blobs are staged next to their final path and
  published with :func:`os.replace`, so readers (including other processes)
  only ever see complete files; concurrent writers racing on one key are
  harmless (last writer wins, both wrote identical content).
* **Pickle-free payloads.**  A blob is an uncompressed ``.npz`` archive
  (:func:`numpy.savez`) with one ``uint8`` member, ``__meta__``: the JSON
  document ``{"tag": "value", "report": ...}`` whose report is
  :func:`~repro.passivity.result.report_to_jsonable`'s form.  No pickling
  anywhere — a store is safe to share between mutually untrusting runs
  (``allow_pickle=False`` on load).
* **LRU eviction by size budget.**  ``index.json`` tracks per-blob sizes and
  last-use times; when the total exceeds ``size_budget`` bytes the least
  recently used blobs are deleted.  The index is advisory — loads always go
  to disk, so entries written by *other* processes are found even before
  they appear in this process's index — and is rebuilt from a directory
  scan when missing or damaged.  Index flushes *merge* with the on-disk
  file before publishing (adopting entries concurrent writer processes
  added, with per-process tombstones keeping locally-evicted keys dead),
  so two processes sharing a root no longer drop each other's LRU
  bookkeeping.  Blobs of other kinds left by older stores are indexed and
  evicted like verdicts, never read.
* **Corruption tolerance.**  A truncated, unreadable or undecodable blob is
  treated as a miss: it is quarantined (deleted) and the caller recomputes.
  A damaged store degrades to recomputation, never to failed requests.

The store also keeps the service's completed-job records (small JSON files
under ``jobs/``) so ``GET /jobs/<id>/result`` survives a service restart —
see :meth:`save_job_record` / :meth:`load_job_records`.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
import uuid
import zipfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import StoreError
from repro.passivity.result import (
    PassivityReport,
    report_from_jsonable,
    report_to_jsonable,
)

__all__ = ["DecompositionStore"]

#: Filename-safety patterns for keys, blob kinds and job ids.
_KEY_RE = re.compile(r"[0-9a-f]{6,128}")
_KIND_RE = re.compile(r"[a-z0-9_]+")
_JOB_ID_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: Exceptions that mean "this blob's *content* is undecodable" — the store
#: quarantines (deletes) the blob and reports a miss.  Deliberately does
#: NOT include ``OSError``: a transient I/O failure (fd exhaustion, a
#: network-volume hiccup, a permission blip) must read as a plain miss
#: without destroying a possibly-healthy blob.
_DECODE_ERRORS = (
    EOFError,
    KeyError,
    ValueError,  # covers json.JSONDecodeError
    TypeError,
    zipfile.BadZipFile,
)

#: Superset used where a failed read has nothing worth preserving (the
#: advisory index, which is rebuilt by scan anyway).
_CORRUPTION_ERRORS = _DECODE_ERRORS + (OSError,)

#: Rewrite ``index.json`` at most every this many puts once the store is
#: large (small stores flush every put — cheap, and keeps the on-disk
#: index exact for the common single-process case).
_INDEX_FLUSH_INTERVAL = 64
_INDEX_ALWAYS_FLUSH_BELOW = 256

_META_MEMBER = "__meta__"

#: The one kind the store writes and reads (the blob-name suffix).
_VERDICT = "verdict"


def _meta_array(meta: Dict[str, Any]) -> np.ndarray:
    """The JSON meta dict as a ``uint8`` array (npz member form)."""
    return np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)


def _meta_from_array(raw: np.ndarray) -> Dict[str, Any]:
    """Inverse of :func:`_meta_array` (raises on malformed JSON)."""
    meta = json.loads(bytes(np.asarray(raw, dtype=np.uint8)).decode("utf-8"))
    if not isinstance(meta, dict):
        raise ValueError("blob meta member is not a JSON object")
    return meta


class DecompositionStore:
    """File-backed L2 store of finished verdicts (see module docs).

    Parameters
    ----------
    root:
        Directory holding the store (created, with parents, when missing).
        Several caches — in one process or many — may share one root.
    size_budget:
        Soft bound on the total blob bytes; exceeding it evicts the least
        recently used blobs.  ``None`` (default) disables eviction.

    Notes
    -----
    The store is thread-safe, and pickling it re-opens the same root (its
    counters start fresh in the unpickling process) — which is how batch
    runners and the service ship it to process-pool workers.
    """

    def __init__(
        self, root: "os.PathLike[str]", size_budget: Optional[int] = None
    ) -> None:
        if size_budget is not None and size_budget < 1:
            raise StoreError(
                f"size_budget must be a positive byte count or None, "
                f"got {size_budget!r}"
            )
        self.root = Path(root)
        self.size_budget = size_budget
        self._objects = self.root / "objects"
        self._jobs = self.root / "jobs"
        self._index_path = self.root / "index.json"
        try:
            self._objects.mkdir(parents=True, exist_ok=True)
            self._jobs.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise StoreError(
                f"cannot create store root {self.root}: {error}"
            ) from error
        self._lock = threading.Lock()
        #: ``"<fp>:<kind>" -> {"size": bytes, "last_used": unix time}``.
        self._index: Dict[str, Dict[str, float]] = {}
        #: Tombstones: keys this process deleted (evicted or quarantined).
        #: The merging flush must not re-adopt them from a stale on-disk
        #: index written by a process that still believed they existed.
        self._dropped: set = set()
        self._puts_since_flush = 0
        self.n_puts = 0
        self.n_load_hits = 0
        self.n_load_misses = 0
        self.n_evictions = 0
        self.n_corrupt = 0
        with self._lock:
            self._load_index()

    # ------------------------------------------------------------------
    # Pickling: re-open the same root in the receiving process.
    # ------------------------------------------------------------------
    def __reduce__(self) -> Tuple[type, Tuple[str, Optional[int]]]:
        """Pickle as ``(root, size_budget)`` — workers re-open the store."""
        return (type(self), (str(self.root), self.size_budget))

    # ------------------------------------------------------------------
    # Key handling
    # ------------------------------------------------------------------
    @staticmethod
    def _validated(key: str) -> str:
        if not _KEY_RE.fullmatch(key or ""):
            raise StoreError(f"malformed verdict key {key!r}")
        return key

    def _blob_path(self, key: str, kind: str = _VERDICT) -> Path:
        return self._objects / key[:2] / f"{key}.{kind}.npz"

    @staticmethod
    def _index_key(key: str, kind: str = _VERDICT) -> str:
        return f"{key}:{kind}"

    # ------------------------------------------------------------------
    # Index (advisory: sizes + recency for eviction)
    # ------------------------------------------------------------------
    def _read_index_file(self) -> Optional[Dict[str, Dict[str, float]]]:
        # Caller holds the lock.  Parse the on-disk index; ``None`` when
        # missing or damaged (damage bumps ``n_corrupt``).
        try:
            with open(self._index_path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            entries = document["entries"]
            if not isinstance(entries, dict):
                raise ValueError("index entries must be an object")
            return {
                str(key): {
                    "size": int(record["size"]),
                    "last_used": float(record["last_used"]),
                }
                for key, record in entries.items()
            }
        except FileNotFoundError:
            return None
        except _CORRUPTION_ERRORS:
            self.n_corrupt += 1
            return None

    def _load_index(self) -> None:
        # Caller holds the lock.  A missing or damaged index is rebuilt from
        # a directory scan (mtime approximates recency).
        entries = self._read_index_file()
        if entries is not None:
            self._index = entries
            return
        self._index = {}
        for blob in self._objects.glob("*/*.npz"):
            parsed = self._parse_blob_name(blob.name)
            if parsed is None:
                continue
            try:
                stat = blob.stat()
            except OSError:
                continue
            self._index[self._index_key(*parsed)] = {
                "size": int(stat.st_size),
                "last_used": float(stat.st_mtime),
            }

    @staticmethod
    def _parse_blob_name(name: str) -> Optional[Tuple[str, str]]:
        if not name.endswith(".npz"):
            return None
        stem = name[: -len(".npz")]
        key, _, kind = stem.partition(".")
        if _KEY_RE.fullmatch(key) and _KIND_RE.fullmatch(kind):
            return key, kind
        return None

    def _maybe_flush_index(self, force: bool = False) -> None:
        # Caller holds the lock.  Small stores flush every put (exact
        # on-disk index, negligible cost); large stores amortize the O(N)
        # rewrite over _INDEX_FLUSH_INTERVAL puts — safe because the index
        # is advisory and rebuilt from a scan when stale or missing.
        self._puts_since_flush += 1
        if (
            force
            or len(self._index) <= _INDEX_ALWAYS_FLUSH_BELOW
            or self._puts_since_flush >= _INDEX_FLUSH_INTERVAL
        ):
            self._puts_since_flush = 0
            self._flush_index()

    def flush(self) -> None:
        """Write the in-memory index to ``index.json`` now (atomic)."""
        with self._lock:
            self._flush_index()

    def _flush_index(self, merge: bool = True) -> None:
        # Caller holds the lock.  Atomic-rename publish, *merged* with the
        # on-disk index first: concurrent writer processes each flush their
        # own view, and a blind overwrite would drop every entry the other
        # process added since this one last read the file (losing its LRU
        # bookkeeping, and with it eviction accuracy).  Merge policy: adopt
        # disk-only keys unless this process deleted them (tombstones in
        # ``_dropped``); for shared keys keep the most recent ``last_used``.
        # ``merge=False`` is for :meth:`clear`, where disk entries are
        # precisely what must not survive.
        if merge:
            disk = self._read_index_file() or {}
            for key, record in disk.items():
                if key in self._dropped:
                    continue
                mine = self._index.get(key)
                if mine is None:
                    self._index[key] = record
                elif record["last_used"] > mine["last_used"]:
                    mine["last_used"] = record["last_used"]
        payload = json.dumps({"entries": self._index}).encode("utf-8")
        tmp = self._index_path.with_name(
            f".index-{os.getpid()}-{uuid.uuid4().hex[:8]}.tmp"
        )
        try:
            with open(tmp, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, self._index_path)
        except OSError:
            # Best-effort: a stale index only degrades eviction accuracy.
            try:
                tmp.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Blob I/O
    # ------------------------------------------------------------------
    def put(self, key: str, report: PassivityReport) -> int:
        """Persist the verdict ``report`` under ``key``; returns blobs evicted.

        Publication is atomic; racing writers on the same key are safe.

        Raises
        ------
        StoreError
            When ``key`` is malformed or the write fails.
        SerializationError
            When ``report`` is not a :class:`~repro.passivity.PassivityReport`.
        """
        key = self._validated(key)
        meta = {"tag": "value", "report": report_to_jsonable(report)}
        path = self._blob_path(key)
        # Encode and write outside the lock: os.replace publication is
        # already atomic, so only the index/counters need serializing and
        # concurrent puts of distinct keys overlap their disk I/O.
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}-{uuid.uuid4().hex[:8]}.tmp"
        )
        try:
            with open(tmp, "wb") as handle:
                np.savez(handle, __meta__=_meta_array(meta))
            os.replace(tmp, path)
            size = path.stat().st_size
        except OSError as error:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise StoreError(
                f"cannot write blob {path.name}: {error}"
            ) from error
        with self._lock:
            self.n_puts += 1
            index_key = self._index_key(key)
            self._dropped.discard(index_key)  # re-created: clear tombstone
            self._index[index_key] = {
                "size": int(size),
                "last_used": time.time(),
            }
            evicted = self._evict_over_budget()
            self._maybe_flush_index(force=bool(evicted))
        return evicted

    def load(self, key: str) -> Optional[PassivityReport]:
        """Fetch the verdict stored under ``key``, or ``None`` on a miss.

        Goes to disk regardless of the index, so blobs written by other
        processes are found immediately.  A truncated or undecodable blob is
        quarantined (deleted, ``n_corrupt`` bumped) and reads as a miss; a
        transient I/O error (``OSError``) is a miss too, but the blob — which
        may be perfectly healthy — is left in place.
        """
        key = self._validated(key)
        path = self._blob_path(key)
        index_key = self._index_key(key)
        # The read and decode run outside the lock: blob publication is
        # atomic, concurrent loads of distinct keys overlap their I/O, and
        # a racing eviction simply turns this read into a miss.
        try:
            with np.load(path, allow_pickle=False) as archive:
                meta = _meta_from_array(archive[_META_MEMBER])
            if meta.get("tag") != "value":
                raise ValueError(f"unknown verdict entry tag {meta.get('tag')!r}")
            report = report_from_jsonable(meta["report"])
        except OSError:  # includes FileNotFoundError: miss, never quarantine
            with self._lock:
                self.n_load_misses += 1
            return None
        except _DECODE_ERRORS:
            with self._lock:
                self.n_corrupt += 1
                self.n_load_misses += 1
                self._quarantine(path, index_key)
            return None
        with self._lock:
            self.n_load_hits += 1
            self._dropped.discard(index_key)  # exists again (other process)
            record = self._index.get(index_key)
            if record is None:
                try:
                    size = int(path.stat().st_size)
                except OSError:
                    size = 0
                record = {"size": size, "last_used": 0.0}
                self._index[index_key] = record
            record["last_used"] = time.time()
        return report

    def contains(self, key: str) -> bool:
        """True when a verdict blob for ``key`` exists on disk."""
        return self._blob_path(self._validated(key)).exists()

    def _quarantine(self, path: Path, index_key: str) -> None:
        # Caller holds the lock.
        try:
            path.unlink()
        except OSError:
            pass
        self._dropped.add(index_key)
        if self._index.pop(index_key, None) is not None:
            self._flush_index()

    def _evict_over_budget(self) -> int:
        # Caller holds the lock.  Deletes LRU blobs until under budget.
        if self.size_budget is None:
            return 0
        evicted = 0
        while (
            len(self._index) > 1
            and sum(record["size"] for record in self._index.values())
            > self.size_budget
        ):
            victim = min(
                self._index, key=lambda key: self._index[key]["last_used"]
            )
            key, _, kind = victim.partition(":")
            try:
                self._blob_path(key, kind).unlink()
            except OSError:
                pass
            del self._index[victim]
            self._dropped.add(victim)
            evicted += 1
            self.n_evictions += 1
        return evicted

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    @property
    def total_bytes(self) -> int:
        """Total indexed blob bytes (the quantity the budget bounds)."""
        with self._lock:
            return int(sum(record["size"] for record in self._index.values()))

    def counters(self) -> Dict[str, int]:
        """Plain-dict snapshot of the store's lifetime counters."""
        with self._lock:
            return {
                "puts": self.n_puts,
                "load_hits": self.n_load_hits,
                "load_misses": self.n_load_misses,
                "evictions": self.n_evictions,
                "corrupt": self.n_corrupt,
            }

    def clear(self) -> None:
        """Delete every blob and job record (counters keep their history)."""
        with self._lock:
            for blob in self._objects.glob("*/*.npz"):
                try:
                    blob.unlink()
                except OSError:
                    pass
            for record in self._jobs.glob("*.json"):
                try:
                    record.unlink()
                except OSError:
                    pass
            self._index = {}
            self._dropped = set()
            # Overwrite, don't merge: the disk entries are exactly what a
            # clear() must not resurrect.
            self._flush_index(merge=False)

    # ------------------------------------------------------------------
    # Service job records (restart persistence)
    # ------------------------------------------------------------------
    def save_job_record(self, record: Dict[str, Any]) -> None:
        """Persist one completed-job record (atomic JSON write).

        The record must carry a filename-safe ``"job_id"``; the service
        stores its terminal snapshot plus the report document here so
        results survive a restart.

        Raises
        ------
        StoreError
            When the record has no usable ``job_id`` or the write fails.
        """
        job_id = str(record.get("job_id", ""))
        if not _JOB_ID_RE.fullmatch(job_id):
            raise StoreError(f"malformed job id {job_id!r}")
        path = self._jobs / f"{job_id}.json"
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}-{uuid.uuid4().hex[:8]}.tmp"
        )
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(record, handle)
            os.replace(tmp, path)
        except (OSError, TypeError, ValueError) as error:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise StoreError(
                f"cannot persist job record {job_id!r}: {error}"
            ) from error

    def delete_job_record(self, job_id: str) -> None:
        """Remove one persisted job record (no-op when absent).

        The service calls this when a terminal job falls out of its bounded
        ``max_history``, so the ``jobs/`` directory tracks the pollable
        history instead of growing for the lifetime of the store.
        """
        if not _JOB_ID_RE.fullmatch(str(job_id or "")):
            return
        try:
            (self._jobs / f"{job_id}.json").unlink()
        except OSError:
            pass

    def load_job_records(self) -> List[Dict[str, Any]]:
        """All persisted job records, oldest finish first.

        Records whose *content* fails to parse are quarantined (deleted)
        and skipped — the same corruption tolerance as blob loads; a
        transient read error skips the record without deleting it.
        """
        records: List[Dict[str, Any]] = []
        for path in sorted(self._jobs.glob("*.json")):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    record = json.load(handle)
                if not isinstance(record, dict):
                    raise ValueError("job record must be a JSON object")
            except OSError:
                continue
            except _DECODE_ERRORS:
                self.n_corrupt += 1
                try:
                    path.unlink()
                except OSError:
                    pass
                continue
            records.append(record)
        records.sort(key=lambda record: record.get("finished_at") or 0.0)
        return records

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DecompositionStore(root={str(self.root)!r}, "
            f"size_budget={self.size_budget}, entries={len(self)})"
        )
