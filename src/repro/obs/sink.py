"""The trace sink: a trace is one append-only JSONL file.

:class:`JsonlSink` writes a ``meta`` header, then one compact JSON
object per line: dict records through ``write``, pre-encoded lines
(the queue sampler and the batch merge, the hot paths) through
``write_line``.  A batch adds one part file per spec, which the
coordinator merges back into the base file.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Union

from repro.obs.events import FORMAT, META


def encode(record: Dict[str, Any]) -> str:
    """One-line compact JSON; non-JSON values degrade to ``repr``."""
    return json.dumps(record, separators=(",", ":"), default=repr)


def trace_path(target: Union[str, Path]) -> str:
    """A telemetry target as a file path; a URL-like one is refused."""
    path = str(target)
    if "://" in path:
        raise ValueError(
            f"telemetry target {path!r} is not a file path: a trace is "
            "one JSONL file; write it to a path and follow it with "
            "`repro watch PATH`"
        )
    return path


class JsonlSink:
    """Append-only JSONL trace writer."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = trace_path(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._closed = False
        self._fh = open(self.path, "w", encoding="utf-8")
        self.write({"t": 0.0, "kind": META, "format": FORMAT,
                    "pid": os.getpid()})

    def write(self, record: Dict[str, Any]) -> None:
        self.write_line(encode(record))

    def write_line(self, line: str) -> None:
        """Append one already-encoded JSON line (the batch-merge path)."""
        self._fh.write(line)
        self._fh.write("\n")

    def flush(self) -> None:
        """Push buffered lines to the OS (for live followers)."""
        if not self._closed:
            self._fh.flush()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._fh.close()
