"""The one on-disk format for serving state.

``SessionStateStore`` is both the write-through persistence of the
supervised serving tier (:mod:`repro.serving.supervisor`) and the format
of :meth:`~repro.serving.PortfolioService.save_checkpoint`.  Each
session has a *snapshot* — its full
:meth:`~repro.serving.PortfolioService.export_session` payload, written
at create, at drain and by compaction — and every committed rebalance
batch appends one record to its worker's *journal* holding only what a
round changes (:meth:`~repro.serving.PortfolioService.export_session_state`:
cursor, anchor, decision count, weights, guardrail book).  A worker can
therefore die at any moment and lose at most the round in flight — the
supervisor replays that round against a fresh worker, which
*rehydrates* each session lazily from its snapshot with the latest
journal entry laid over it.  A checkpoint is the same directory written
in one pass, and every read overlays the journal, so a supervisor's
``state_dir`` loads directly with
:meth:`~repro.serving.PortfolioService.load_checkpoint`, drained or not.

Layout::

    root/
      service.json                       # {"commission": ...}
      markets/<quoted-name>.npz          # panels, write-once (immutable)
      agents/<sha256(agent_key)>.npz     # shared-agent weights, write-once
      sessions/<quoted-id>/state.json    # per-session snapshot
      sessions/<quoted-id>/weights.npz   # private learned-agent weights
      journal/<worker-index>.log         # per-worker mutable-state records

Files other than the journal are written atomically via
:mod:`repro.utils.serialization` (temp file + ``os.replace``: safe
against a process crash).  ``state.json`` is the commit point of a
snapshot: it lands last (after any weights file), so a torn write
leaves the previous snapshot, never half of the new one.  Its
``weights`` entry names the weights file: ``agents/<sha>.npz`` relative
to ``root`` for a shared agent, anything else relative to the session's
directory (``weights.npz``, as stores written by earlier versions also
name it).  Serving never mutates network weights, so weights are
written once — once per shared agent, however many sessions serve it.
Write-once is sound because an agent key names one set of weights for
the life of a store: a supervisor's sessions are registry-built, whose
shared key is their spec, and
:meth:`~repro.serving.PortfolioService.save_checkpoint` writes every
checkpoint into a fresh directory.  An agent blob never changes after
it is written, so each store reads it at most once and hands out
read-only arrays from then on.

Journal.  A record is a little-endian ``uint32`` body length, the
body's ``crc32``, then the body: compact JSON mapping each session the
batch touched to its mutable state.  :meth:`append` writes a record
with one ``os.write`` and one ``os.fsync`` — a batch is acknowledged
only once it is on disk, which makes the journal the store's one
power-loss-durable write path.  A short or checksum-failing record at
the tail is a torn write: readers ignore it, and the writer truncates
it away (:meth:`open_journal`) before its next append.  A bad record
with bytes after it is damage and raises :class:`CheckpointCorrupt`.
Later entries win.  :meth:`compact` folds the entries into the
snapshots, fsyncs them and ``sessions/``, and only then truncates the
journal; it runs when a supervisor opens the store, at drain, and when
a journal passes :data:`JOURNAL_COMPACT_BYTES`.  Compacting at open
means a session is only ever in one journal, whatever the worker count
was before a restart.  The journal carries mutable state only, so every
journaled session has a snapshot (written at create).

The store also tracks *residency* (which sessions a worker holds in
memory) as an LRU: :meth:`touch` bumps a session and :meth:`overflow`
returns the ids beyond ``max_resident``, which the worker then evicts
from its service (safe, because write-through means their state is
already on disk) and rehydrates lazily if touched again.  Damaged files
surface as :class:`CheckpointCorrupt` naming the file.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import quote, unquote

from ..data.market import MarketData, market_from_state, market_to_state
from ..utils.serialization import (
    PathLike,
    fsync_directory,
    load_json,
    load_state_dict,
    save_json,
    save_state_dict,
)

__all__ = ["CheckpointCorrupt", "JOURNAL_COMPACT_BYTES", "SessionStateStore"]

# A worker compacts its journal once it grows past this many bytes,
# which bounds both the journal's disk use and the replay a restarted
# worker (or a reader) does.
JOURNAL_COMPACT_BYTES = 4 << 20

# Record frame: body length, crc32 of the body (both little-endian u32).
_FRAME = struct.Struct("<II")


class CheckpointCorrupt(RuntimeError):
    """A checkpoint file failed to load — truncated, tampered, or
    missing.  The message names the offending file so operators know
    what to restore."""


def _read_checkpoint_file(path: Path, loader, referenced: bool = False):
    """Load one checkpoint file, turning damage into a structured error.

    Truncated/corrupt bytes (a torn npz, half a JSON record) raise
    :class:`CheckpointCorrupt` naming the file.  ``referenced=True``
    marks files another file points at — for those, *missing* is also
    corruption (the commit mark exists but its contents do not), while
    a missing ``service.json`` stays ``FileNotFoundError``.
    """
    try:
        return loader(path)
    except FileNotFoundError:
        if referenced:
            raise CheckpointCorrupt(
                f"checkpoint file {path} is referenced but missing"
            ) from None
        raise
    except Exception as exc:
        # np.load raises zipfile.BadZipFile/ValueError/EOFError on torn
        # archives and json raises JSONDecodeError on torn text; the
        # loader does nothing but read, so anything it throws is a
        # damaged file.
        raise CheckpointCorrupt(
            f"checkpoint file {path} is corrupt: {type(exc).__name__}: {exc}"
        ) from exc


def _scan_journal(path: Path, data: bytes) -> Tuple[Dict[str, Any], int]:
    """The latest entry per session in one journal's bytes, and the
    offset just past its last good record.

    A short or bad record at the tail is a torn write and ends the
    scan; a bad record with bytes after it raises
    :class:`CheckpointCorrupt` naming the file.
    """
    entries: Dict[str, Any] = {}
    end = 0
    while end + _FRAME.size <= len(data):
        length, crc = _FRAME.unpack_from(data, end)
        stop = end + _FRAME.size + length
        if stop > len(data):
            break
        body = data[end + _FRAME.size : stop]
        try:
            if length == 0 or zlib.crc32(body) != crc:
                raise ValueError("checksum mismatch")
            record = json.loads(body)
        except ValueError as exc:
            if stop < len(data):
                raise CheckpointCorrupt(
                    f"checkpoint file {path} is corrupt: bad journal record "
                    f"at byte {end}: {exc}"
                ) from exc
            break
        entries.update(record)
        end = stop
    return entries, end


def _read_journals(paths: List[Path]) -> Dict[str, Dict[str, Any]]:
    """Latest entry per session across journal files."""
    entries: Dict[str, Dict[str, Any]] = {}
    for path in paths:
        entries.update(_scan_journal(path, path.read_bytes())[0])
    return entries


def _safe(name: str) -> str:
    """Filesystem-safe, reversible encoding of a user-chosen name."""
    return quote(name, safe="")


class SessionStateStore:
    """Write-through session persistence with LRU residency tracking.

    Thread-safe: one instance is shared by a worker's serve loop and
    its drain path, and the supervisor opens its own instance over the
    same root (the on-disk layout, not the object, is the interface).
    A worker makes its instance the one writer of its journal with
    :meth:`open_journal` and from then on overlays its own entries from
    memory; any other instance re-reads the journals when they change.
    Directories are created on first write, so opening a store to read
    never changes the disk.
    """

    def __init__(self, root: PathLike, max_resident: Optional[int] = None):
        if max_resident is not None and max_resident < 1:
            raise ValueError("max_resident must be >= 1 (or None for unbounded)")
        self.root = Path(root)
        self.max_resident = max_resident
        self._lock = threading.Lock()
        self._resident: "OrderedDict[str, None]" = OrderedDict()
        # Agent blobs read so far (root-relative name -> read-only arrays).
        self._agent_blobs: Dict[str, Dict[str, Any]] = {}
        # Latest journal entry per session: a writer's own, kept as it
        # appends; a reader's, merged from every journal as of the file
        # sizes and mtimes in ``_scanned``.
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._scanned: Optional[Tuple[Tuple[str, int, int], ...]] = None
        self._journal_fd: Optional[int] = None
        self._journal_size = 0

    # -- service -------------------------------------------------------
    def save_service(self, commission: float) -> None:
        save_json(self.root / "service.json", {"commission": float(commission)})

    def load_service(self) -> Dict[str, Any]:
        """The ``service.json`` record; a store without one (or a
        missing root) raises ``FileNotFoundError``."""
        return _read_checkpoint_file(self.root / "service.json", load_json)

    # -- markets -------------------------------------------------------
    def _market_path(self, name: str) -> Path:
        return self.root / "markets" / f"{_safe(name)}.npz"

    def save_market(self, name: str, data: MarketData) -> None:
        """Persist a panel once; market names are immutable (the same
        contract as ``PortfolioService.register_market``), so an
        existing file is left untouched."""
        path = self._market_path(name)
        if path.exists():
            return
        save_state_dict(path, market_to_state(data))

    def load_market(self, name: str) -> MarketData:
        path = self._market_path(name)
        if not path.exists():
            raise KeyError(f"market {name!r} is not in the store")
        return market_from_state(
            _read_checkpoint_file(path, load_state_dict, referenced=True)
        )

    def market_names(self) -> Tuple[str, ...]:
        return tuple(
            sorted(
                unquote(p.name[: -len(".npz")])
                for p in (self.root / "markets").glob("*.npz")
            )
        )

    # -- sessions ------------------------------------------------------
    def _session_dir(self, session_id: str) -> Path:
        return self.root / "sessions" / _safe(session_id)

    def has_session(self, session_id: str) -> bool:
        return (self._session_dir(session_id) / "state.json").exists()

    def session_ids(self) -> Tuple[str, ...]:
        return tuple(
            sorted(
                unquote(p.parent.name)
                for p in (self.root / "sessions").glob("*/state.json")
            )
        )

    def save_session(self, payload: Dict[str, Any]) -> None:
        """Snapshot one ``export_session`` payload.

        Network weights land the first time only — in the shared
        agent's blob, or in the session's own ``weights.npz`` for a
        private agent; the JSON record lands last as the commit point.
        Snapshots are written at create and by checkpoints; a committed
        round goes to the journal (:meth:`append`) instead.
        """
        directory = self._session_dir(payload["session_id"])
        record = {k: v for k, v in payload.items() if k != "weights"}
        record["weights"] = None
        weights = payload.get("weights")
        if weights is not None:
            if payload.get("shared") and payload.get("agent_key"):
                digest = hashlib.sha256(payload["agent_key"].encode()).hexdigest()
                name = f"agents/{digest}.npz"
                path = self.root / name
            else:
                name = "weights.npz"
                path = directory / name
            record["weights"] = name
            if not path.exists():
                save_state_dict(path, weights)
        save_json(directory / "state.json", record)

    def load_session_record(self, session_id: str) -> Dict[str, Any]:
        """The JSON half of a stored session (weights left as the
        file's name), latest journal entry applied — enough to route or
        describe it."""
        # Journal before snapshot: a compaction between the two reads
        # has already rewritten the snapshot when it truncates.
        entry = self._journal_entries().get(session_id)
        path = self._session_dir(session_id) / "state.json"
        if not path.exists():
            raise KeyError(f"session {session_id!r} is not in the store")
        record = _read_checkpoint_file(path, load_json, referenced=True)
        if entry is not None:
            record["state"].update(entry)
        return record

    def load_session(self, session_id: str) -> Dict[str, Any]:
        """The full ``import_session`` payload, weights rehydrated."""
        record = self.load_session_record(session_id)
        name = record.get("weights")
        if name is None:
            return record
        if not name.startswith("agents/"):
            record["weights"] = self._read_weights(self._session_dir(session_id) / name)
            return record
        with self._lock:
            blob = self._agent_blobs.get(name)
        if blob is None:
            blob = self._read_weights(self.root / name)
            for array in blob.values():
                array.setflags(write=False)
            with self._lock:
                blob = self._agent_blobs.setdefault(name, blob)
        record["weights"] = dict(blob)
        return record

    @staticmethod
    def _read_weights(path: Path) -> Dict[str, Any]:
        return _read_checkpoint_file(path, load_state_dict, referenced=True)

    # -- journal -------------------------------------------------------
    def _journal_paths(self) -> List[Path]:
        return sorted((self.root / "journal").glob("*.log"))

    def _journal_entries(self) -> Dict[str, Dict[str, Any]]:
        """Latest entry per session: a writer's own from memory, a
        reader's from the journal files, re-read when they change."""
        with self._lock:
            if self._journal_fd is not None:
                return self._entries
            paths = self._journal_paths()
            stats = [path.stat() for path in paths]
            signature = tuple(
                (path.name, st.st_size, st.st_mtime_ns)
                for path, st in zip(paths, stats)
            )
            if signature != self._scanned:
                self._entries = _read_journals(paths)
                self._scanned = signature
            return self._entries

    def open_journal(self, index: int) -> None:
        """Become the one writer of ``journal/<index>.log``.

        Replays the journal into memory (a restarted worker picks up
        its predecessor's committed rounds) and truncates a torn tail
        away, so the next record never lands behind garbage.
        """
        path = self.root / "journal" / f"{index}.log"
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            data = path.read_bytes()
            entries, good = _scan_journal(path, data)
            if good < len(data):
                os.ftruncate(fd, good)
        except BaseException:
            os.close(fd)
            raise
        with self._lock:
            self._journal_fd = fd
            self._journal_size = good
            self._entries = entries

    def append(self, entries: Dict[str, Dict[str, Any]]) -> None:
        """Durably journal one committed batch: ``{session_id:
        export_session_state payload}``, one write and one fsync.

        Compacts once the journal passes :data:`JOURNAL_COMPACT_BYTES`.
        """
        body = json.dumps(entries, separators=(",", ":")).encode()
        frame = _FRAME.pack(len(body), zlib.crc32(body)) + body
        with self._lock:
            fd = self._journal_fd
            if fd is None:
                raise RuntimeError("append needs open_journal() first")
            try:
                written = os.write(fd, frame)
                while written < len(frame):
                    written += os.write(fd, frame[written:])
                os.fsync(fd)
            except BaseException:
                # Never leave a partial record for the next one to
                # land behind.
                os.ftruncate(fd, self._journal_size)
                raise
            self._journal_size += len(frame)
            self._entries.update(entries)
            if self._journal_size >= JOURNAL_COMPACT_BYTES:
                self._compact_locked()

    def compact(self) -> Tuple[str, ...]:
        """Fold journal entries into the session snapshots and empty the
        journal; returns the ids folded.

        A writer folds its own journal; any other instance folds every
        journal, which is only safe while no worker is appending (a
        supervisor compacts before it spawns workers and after they
        exit).  Snapshots and ``sessions/`` are fsynced before any
        journal is truncated, so a crash mid-compaction loses nothing.
        """
        with self._lock:
            return self._compact_locked()

    def _compact_locked(self) -> Tuple[str, ...]:
        if self._journal_fd is not None:
            entries = self._entries
        else:
            entries = _read_journals(self._journal_paths())
        for session_id, entry in entries.items():
            path = self._session_dir(session_id) / "state.json"
            record = _read_checkpoint_file(path, load_json, referenced=True)
            record["state"].update(entry)
            save_json(path, record, durable=True)
        if entries:
            fsync_directory(self.root / "sessions")
        if self._journal_fd is not None:
            os.ftruncate(self._journal_fd, 0)
            self._journal_size = 0
        else:
            for path in self._journal_paths():
                os.truncate(path, 0)
            self._scanned = None
        self._entries = {}
        return tuple(sorted(entries))

    # -- LRU residency -------------------------------------------------
    def touch(self, session_id: str) -> None:
        """Mark a session resident and most-recently-used."""
        with self._lock:
            self._resident[session_id] = None
            self._resident.move_to_end(session_id)

    def overflow(self) -> List[str]:
        """Pop and return the least-recently-used ids beyond
        ``max_resident`` (empty when unbounded).

        Deliberately separate from :meth:`touch`: a worker touches every
        session a batch serves, then collects the overflow *after* the
        batch commits and persists — so a batch wider than the residency
        budget can never evict a session it is still serving.
        """
        with self._lock:
            evicted: List[str] = []
            if self.max_resident is not None:
                while len(self._resident) > self.max_resident:
                    evicted.append(self._resident.popitem(last=False)[0])
            return evicted

    def resident_ids(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._resident)
