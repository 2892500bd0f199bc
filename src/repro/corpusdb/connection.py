"""SQLite connection plumbing for the findings database.

:class:`~repro.corpusdb.db.FindingsDB` opens its file through
:func:`connect`, so every connection to a shared ``--db`` file agrees on
journal mode and timeouts.

Multi-statement ingests go through :func:`immediate`, which opens a
``BEGIN IMMEDIATE`` transaction (taking the write lock up front, so a
transaction can never fail halfway through after doing read work) and
retries a bounded number of times when another process holds the lock.
Two campaigns ingesting into one shared database concurrently therefore
serialize cleanly instead of aborting.
"""

from __future__ import annotations

import contextlib
import logging
import os
import sqlite3
import time
from typing import Iterator

logger = logging.getLogger(__name__)

#: How long a single SQLite call blocks on a locked database before
#: raising (milliseconds).  Generous: ingests are short, contention rare.
BUSY_TIMEOUT_MS = 5_000

#: How many times a locked statement (the WAL switch of :func:`connect`,
#: the ``BEGIN`` of :func:`immediate`) is re-attempted, and the backoff
#: between attempts.
LOCK_RETRIES = 10
LOCK_RETRY_DELAY_SECONDS = 0.05


def connect(path: str, timeout_ms: int = BUSY_TIMEOUT_MS) -> sqlite3.Connection:
    """Open (creating directories as needed) one findings database.

    Applies the house settings the database relies on: WAL journaling
    (readers coexist with one writer), ``synchronous=NORMAL`` (durable
    enough — a torn final transaction loses one ingest, never corrupts),
    foreign keys on, a busy timeout, and :class:`sqlite3.Row` rows.
    ``":memory:"`` is accepted for ephemeral databases.
    """
    path = str(path)
    if path != ":memory:":
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
    # check_same_thread=False: a store may be built on the main thread and
    # driven from a worker thread (the campaign never shares one connection
    # between threads concurrently; cross-process safety comes from WAL +
    # busy timeouts, not the thread guard).
    conn = sqlite3.connect(path, timeout=timeout_ms / 1000.0,
                           check_same_thread=False)
    conn.row_factory = sqlite3.Row
    # When two processes switch one new file to WAL together, SQLite
    # answers one with "database is locked" immediately rather than
    # waiting out the busy timeout, so the switch retries like a BEGIN.
    _retry_locked(lambda: conn.execute("PRAGMA journal_mode=WAL"))
    conn.execute("PRAGMA synchronous=NORMAL")
    conn.execute("PRAGMA foreign_keys=ON")
    conn.execute(f"PRAGMA busy_timeout={int(timeout_ms)}")
    return conn


def _is_locked(exc: sqlite3.OperationalError) -> bool:
    message = str(exc).lower()
    return "locked" in message or "busy" in message


def _retry_locked(statement, retries: int = LOCK_RETRIES,
                  retry_delay: float = LOCK_RETRY_DELAY_SECONDS,
                  sleep=time.sleep):
    """Run *statement* (a callable), retrying while the database is locked.

    Backs off linearly; after ``retries`` failed attempts the underlying
    ``OperationalError`` propagates, as does any other error at once."""
    attempt = 0
    while True:
        try:
            return statement()
        except sqlite3.OperationalError as exc:
            if not _is_locked(exc) or attempt >= retries:
                raise
            attempt += 1
            logger.debug("database locked, retry %d/%d", attempt, retries)
            sleep(retry_delay * attempt)


@contextlib.contextmanager
def immediate(conn: sqlite3.Connection,
              retries: int = LOCK_RETRIES,
              retry_delay: float = LOCK_RETRY_DELAY_SECONDS,
              sleep=time.sleep) -> Iterator[sqlite3.Connection]:
    """A ``BEGIN IMMEDIATE`` transaction with bounded lock retries.

    Taking the reserved lock at BEGIN (not at first write) means a
    concurrent writer is discovered immediately and the whole transaction
    is retried from the top — the multi-statement ingest bodies never
    execute half-way against a database another process is mutating.
    Commits on clean exit, rolls back on exception.  After ``retries``
    failed attempts the underlying ``OperationalError`` propagates.
    """
    _retry_locked(lambda: conn.execute("BEGIN IMMEDIATE"), retries,
                  retry_delay, sleep)
    try:
        yield conn
    except BaseException:
        conn.rollback()
        raise
    else:
        conn.commit()
