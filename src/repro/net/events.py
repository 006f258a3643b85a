"""Structured JSONL event logging for the networked runtime.

Every component of :mod:`repro.net` — the gossip nodes, the SWIM failure
detector, the TCP transport — reports what it does through one
:class:`NetEventLog`: an append-only stream of flat JSON objects, one per
line, in the spirit of :class:`~repro.runtime.transport.RecordingTransport`
but serialisable and shared across transports.  The same sink is accepted by
``RecordingTransport(log_path=...)``, so an in-memory run and a TCP run of
the same deployment produce event streams a single analyzer can consume
(the ``gossip_sim`` workload of ``bench/`` reads envelope latency off the
``send`` / ``deliver`` pairs).

Event schema — every record carries at least::

    {"ts": <seconds>, "node": <peer name>, "action": <kind>}

with ``action`` one of ``send``, ``deliver``, ``drop``, ``forward``,
``join``, ``leave``, ``alive``, ``suspect``, ``dead``, ``register``,
``unregister``, ``digest``, ``pull`` — plus action-specific fields
(``message_id``, ``envelope``, ``peer``, ``reason``...).  Timestamps are
caller-provided, so simulated runs log virtual time and TCP runs log
monotonic wall clock; within one log they are mutually comparable, which is
all the latency analysis needs.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Union


class NetEventLog:
    """A thread-safe event sink: in-memory list plus an optional JSONL file.

    ``path=None`` keeps events only in memory (tests, short benchmarks);
    with a path every event is appended to the file as one JSON line the
    moment it is emitted, so a crashed run still leaves its trace behind.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None,
                 keep_in_memory: bool = True):
        self.path = Path(path) if path is not None else None
        self.keep_in_memory = keep_in_memory
        self._events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._file = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open("a", encoding="utf-8")

    def emit(self, action: str, node: str, ts: float, **fields: Any) -> Dict[str, Any]:
        """Record one event; returns the record that was written."""
        record: Dict[str, Any] = {"ts": round(ts, 6), "node": node,
                                  "action": action}
        record.update(fields)
        with self._lock:
            if self.keep_in_memory:
                self._events.append(record)
            if self._file is not None:
                self._file.write(json.dumps(record, sort_keys=False,
                                            default=str) + "\n")
                self._file.flush()
        return record

    def events(self, action: Optional[str] = None,
               node: Optional[str] = None) -> List[Dict[str, Any]]:
        """The recorded events, optionally filtered by action and/or node."""
        with self._lock:
            selected = list(self._events)
        if action is not None:
            selected = [e for e in selected if e["action"] == action]
        if node is not None:
            selected = [e for e in selected if e["node"] == node]
        return selected

    def clear(self) -> List[Dict[str, Any]]:
        """Return the in-memory events recorded so far and start fresh."""
        with self._lock:
            events = self._events
            self._events = []
        return events

    def close(self) -> None:
        """Flush and close the JSONL file (no-op for in-memory logs)."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __enter__(self) -> "NetEventLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_events(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a JSONL event file back into a list of event records."""
    records: List[Dict[str, Any]] = []
    with Path(path).open(encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
