"""Database files of one benchmark run, and what they take on disk."""

from __future__ import annotations

import os
import sqlite3
import uuid


def fresh_db(workdir: str, stem: str) -> str:
    """A path for a new database file under the run's work directory."""
    return os.path.join(workdir, "%s-%s.sqlite" % (stem, uuid.uuid4().hex))


def io_row_count(path: str) -> int:
    conn = sqlite3.connect(path)
    try:
        return conn.execute("SELECT COUNT(*) FROM io").fetchone()[0]
    finally:
        conn.close()


def store_footprint(path: str) -> int:
    """Bytes of the database file plus its WAL after a full checkpoint."""
    conn = sqlite3.connect(path)
    try:
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    finally:
        conn.close()
    total = os.path.getsize(path)
    wal = path + "-wal"
    if os.path.exists(wal):
        total += os.path.getsize(wal)
    return total


def remove_db(path: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)
