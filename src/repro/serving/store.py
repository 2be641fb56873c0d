"""The one on-disk format for serving state.

``SessionStateStore`` is both the write-through persistence of the
supervised serving tier (:mod:`repro.serving.supervisor`) and the format
of :meth:`~repro.serving.PortfolioService.save_checkpoint`: every
committed rebalance round writes the touched sessions'
:meth:`~repro.serving.PortfolioService.export_session` payloads through
to disk, so a worker process can die at any moment and lose at most the
round that was in flight — the supervisor replays that round against a
fresh worker, which *rehydrates* each session lazily from its last
stored state on first touch.  A checkpoint is the same directory
written in one pass, so a drained supervisor's ``state_dir`` loads
directly with :meth:`~repro.serving.PortfolioService.load_checkpoint`.

Layout (all writes atomic, via :mod:`repro.utils.serialization`)::

    root/
      service.json                       # {"commission": ...}
      markets/<quoted-name>.npz          # panels, write-once (immutable)
      agents/<sha256(agent_key)>.npz     # shared-agent weights, write-once
      sessions/<quoted-id>/state.json    # per-session export payload
      sessions/<quoted-id>/weights.npz   # private learned-agent weights

``state.json`` is the commit point for a session write: it lands last
(after any weights file) via temp-file + ``os.replace``, so a torn write
leaves the previous state, never half of the new one.  Its ``weights``
entry names the weights file: ``agents/<sha>.npz`` relative to ``root``
for a shared agent, anything else relative to the session's directory
(``weights.npz``, as stores written by earlier versions also name it).
Serving never mutates network weights, so weights are written once —
once per shared agent, however many sessions serve it — which keeps the
per-round write to a single small JSON file.  Write-once is sound
because an agent key names one set of weights for the life of a store:
a supervisor's sessions are registry-built, whose shared key is their
spec, and :meth:`~repro.serving.PortfolioService.save_checkpoint` writes
every checkpoint into a fresh directory.  An agent blob never changes
after it is written, so each store reads it at most once and hands out
read-only arrays from then on.

The store also tracks *residency* (which sessions a worker holds in
memory) as an LRU: :meth:`touch` bumps a session and :meth:`overflow`
returns the ids beyond ``max_resident``, which the worker then evicts
from its service (safe, because write-through means their state is
already on disk) and rehydrates lazily if touched again.  Damaged files
surface as :class:`CheckpointCorrupt` naming the file.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import quote, unquote

from ..data.market import MarketData, market_from_state, market_to_state
from ..utils.serialization import (
    PathLike,
    load_json,
    load_state_dict,
    save_json,
    save_state_dict,
)

__all__ = ["CheckpointCorrupt", "SessionStateStore"]


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


def _safe(name: str) -> str:
    """Filesystem-safe, reversible encoding of a user-chosen name."""
    return quote(name, safe="")


class SessionStateStore:
    """Write-through session persistence with LRU residency tracking.

    Thread-safe: one instance is shared by a worker's serve loop and
    its drain path, and the supervisor opens its own instance over the
    same root (the on-disk layout, not the object, is the interface —
    every write is atomic).  Directories are created on first write,
    so opening a store to read never changes the disk.
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
        """Write-through one ``export_session`` payload.

        Network weights land the first time only — in the shared
        agent's blob, or in the session's own ``weights.npz`` for a
        private agent; the small per-round JSON record lands last as
        the commit point.
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
        file's name) — enough to route or describe it."""
        path = self._session_dir(session_id) / "state.json"
        if not path.exists():
            raise KeyError(f"session {session_id!r} is not in the store")
        return _read_checkpoint_file(path, load_json, referenced=True)

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

    def delete_session(self, session_id: str) -> None:
        directory = self._session_dir(session_id)
        # state.json first: once the commit mark is gone the session no
        # longer exists, whatever survives of the weights file.
        for name in ("state.json", "weights.npz"):
            path = directory / name
            if path.exists():
                path.unlink()
        if directory.exists():
            directory.rmdir()
        with self._lock:
            self._resident.pop(session_id, None)

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
