"""Row-level checkpointing for the table harnesses.

A long Table 1 run that dies on row 30 of 36 should not have to redo the
first 29 rows.  The harness records every finished row into a checkpoint
file immediately (so an interrupt at any point loses at most the row in
flight), and ``--resume`` replays recorded rows instead of recomputing
them.

On-disk format — a versioned JSON envelope::

    {"version": 1, "config": {...}, "rows": {"s400": {...}, ...}}

``config`` captures the harness parameters that make rows comparable
(harness name, unateness, effort).  A checkpoint whose config differs
from the resuming run is ignored wholesale — resuming a ``--unate`` run
from a structural-exposure checkpoint would silently mix incomparable
rows.  Loads are paranoid: unparseable files,
missing envelopes, and wrong schema versions all degrade to "no
checkpoint", never to corrupt rows.  Writes go through a temp file +
``os.replace`` so an interrupt mid-write cannot destroy the file.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Optional, Union

__all__ = ["Checkpoint", "CHECKPOINT_VERSION"]

#: On-disk schema version; files under a different version are ignored.
CHECKPOINT_VERSION = 1


class Checkpoint:
    """A ``row name -> row dict`` store bound to one harness configuration."""

    def __init__(
        self,
        path: Union[str, os.PathLike],
        config: Optional[Dict[str, object]] = None,
    ) -> None:
        self.path = os.fspath(path)
        self.config: Dict[str, object] = dict(config or {})
        self.rows: Dict[str, Dict[str, object]] = {}

    def load(self) -> Dict[str, Dict[str, object]]:
        """Read recorded rows; anything invalid degrades to no rows."""
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except (OSError, ValueError):
            return {}
        if not isinstance(raw, dict):
            return {}
        if raw.get("version") != CHECKPOINT_VERSION:
            return {}
        if raw.get("config") != self.config:
            return {}  # different harness parameters: rows not comparable
        rows = raw.get("rows")
        if not isinstance(rows, dict):
            return {}
        self.rows = {
            str(name): row
            for name, row in rows.items()
            if isinstance(row, dict)
        }
        return dict(self.rows)

    def record(self, name: str, row: Dict[str, object]) -> None:
        """Record one finished row and flush the file atomically."""
        self.rows[str(name)] = row
        self._save()

    def _save(self) -> None:
        payload = {
            "version": CHECKPOINT_VERSION,
            "config": self.config,
            "rows": self.rows,
        }
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def __contains__(self, name: str) -> bool:
        return name in self.rows

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Checkpoint({len(self.rows)} rows, {self.path!r})"
