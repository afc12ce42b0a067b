"""Pluggable trace sinks: JSONL files (with rotation) and push streams.

Every sink speaks the same two-method protocol the tracer and the batch
merge layer use: ``write(record)`` for dict records and ``write_line``
for already-encoded JSON lines (the hot path — ``QueueSampler`` and the
part-file merge both pre-encode).

* :class:`JsonlSink` — append-only file writer.  When the live file
  exceeds ``rotate_bytes`` it is renamed to ``<path>.1``, ``<path>.2``,
  ... (ascending = chronological) and a fresh file is opened at the
  original path, so a bounded tail is always at the expected location
  while nothing is lost.  ``iter_trace_files`` returns the rotated
  series in write order for readers, and ``repro watch`` follows the
  live file across rotations by inode.
* :class:`StreamSink` — pushes encoded lines to a callback or file-like
  object as they happen (a socket, ``sys.stdout``, a queue ``put``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, List, Union

from repro.obs.events import FORMAT, META

#: Default rotation threshold; generous for simulation traces (a 40 s
#: single-flow run emits a few MB at the default sampling interval).
ROTATE_BYTES = 64 * 1024 * 1024


def encode(record: Dict[str, Any]) -> str:
    """One-line compact JSON; non-JSON values degrade to ``repr``."""
    return json.dumps(record, separators=(",", ":"), default=repr)


class Sink:
    """Base class for trace sinks.

    Subclasses implement ``write_line`` (one encoded JSON line, no
    trailing newline) and may override ``write`` when they can use the
    decoded record directly.  ``close`` is idempotent and a no-op by
    default.
    """

    def write(self, record: Dict[str, Any]) -> None:
        self.write_line(encode(record))

    def write_line(self, line: str) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class JsonlSink(Sink):
    """Append-only JSONL writer with rotation."""

    def __init__(self, path: Union[str, Path], rotate_bytes: int = ROTATE_BYTES,
                 header: bool = True) -> None:
        self.path = str(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self.rotate_bytes = rotate_bytes
        self.rotations = 0
        self._written = 0
        self._closed = False
        self._header = header
        # Opening "w" truncates only the live file; rotated segments
        # from an earlier run at the same path would otherwise survive
        # and pollute readers with mixed-run records.
        for stale in iter_trace_files(self.path):
            if stale != self.path:
                try:
                    os.remove(stale)
                except OSError:
                    pass
        self._fh = open(self.path, "w", encoding="utf-8")
        if header:
            self.write({"t": 0.0, "kind": META, "format": FORMAT,
                        "pid": os.getpid()})

    def write_line(self, line: str) -> None:
        """Append one already-encoded JSON line (the batch-merge path)."""
        self._fh.write(line)
        self._fh.write("\n")
        self._written += len(line) + 1
        if self.rotate_bytes and self._written >= self.rotate_bytes:
            self._rotate()

    def _rotate(self) -> None:
        self._fh.close()
        self.rotations += 1
        os.replace(self.path, f"{self.path}.{self.rotations}")
        self._fh = open(self.path, "w", encoding="utf-8")
        self._written = 0
        if self._header:
            # Keep every file of the series self-describing; readers
            # that care can tell a continuation from a fresh trace by
            # the rotation field.
            self.write({"t": 0.0, "kind": META, "format": FORMAT,
                        "pid": os.getpid(), "rotation": self.rotations})

    def flush(self) -> None:
        """Push buffered lines to the OS (for live followers)."""
        if not self._closed:
            self._fh.flush()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._fh.close()


class StreamSink(Sink):
    """Push each encoded line to a callback or writable file object.

    ``target`` is either a callable invoked with the line (no trailing
    newline) or a file-like object whose ``write`` receives the line
    plus ``\\n`` (and is flushed per line, so a tail sees events live).
    """

    def __init__(self, target: Union[Callable[[str], Any], Any],
                 header: bool = True) -> None:
        if callable(target):
            self._call = target
            self._fh = None
        else:
            self._call = None
            self._fh = target
        self.lines = 0
        if header:
            self.write({"t": 0.0, "kind": META, "format": FORMAT,
                        "pid": os.getpid()})

    def write_line(self, line: str) -> None:
        if self._call is not None:
            self._call(line)
        else:
            self._fh.write(line + "\n")
            flush = getattr(self._fh, "flush", None)
            if flush is not None:
                flush()
        self.lines += 1


def iter_trace_files(path: Union[str, Path]) -> List[str]:
    """All files of a possibly-rotated trace, oldest first.

    Only pure-numeric suffixes count as rotations (``x.jsonl.1``);
    worker part files (``x.jsonl.part0003.jsonl``) are unrelated.
    """
    path = str(path)
    rotated = []
    parent = os.path.dirname(path) or "."
    base = os.path.basename(path)
    if os.path.isdir(parent):
        for name in os.listdir(parent):
            if name.startswith(base + "."):
                suffix = name[len(base) + 1:]
                if suffix.isdigit():
                    rotated.append((int(suffix), os.path.join(parent, name)))
    files = [p for _, p in sorted(rotated)]
    if os.path.exists(path):
        files.append(path)
    return files
