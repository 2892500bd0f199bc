"""SQLite connection plumbing: the settings every findings-database
connection shares, BEGIN IMMEDIATE lock retries in-process, and the
regression test with two real processes ingesting into one file."""

from __future__ import annotations

import os
import sqlite3
import subprocess
import sys
import textwrap

import pytest

from repro.corpusdb import FindingsDB, connect, immediate
from repro.corpusdb.connection import BUSY_TIMEOUT_MS

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def test_connect_applies_the_house_settings(tmp_path):
    conn = connect(str(tmp_path / "db.sqlite"))
    try:
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert conn.execute("PRAGMA synchronous").fetchone()[0] == 1  # NORMAL
        assert conn.execute("PRAGMA foreign_keys").fetchone()[0] == 1
        assert (conn.execute("PRAGMA busy_timeout").fetchone()[0]
                == BUSY_TIMEOUT_MS)
        assert conn.execute("SELECT 7 AS seven").fetchone()["seven"] == 7
    finally:
        conn.close()


def test_connect_creates_missing_directories(tmp_path):
    path = tmp_path / "nested" / "deeper" / "db.sqlite"
    connect(str(path)).close()
    assert path.is_file()


def test_connect_opens_in_memory_databases_without_touching_disk(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    conn = connect(":memory:")
    conn.execute("CREATE TABLE t (x)")
    conn.execute("INSERT INTO t VALUES (1)")
    assert conn.execute("SELECT x FROM t").fetchone()["x"] == 1
    conn.close()
    assert list(tmp_path.iterdir()) == []


def test_immediate_commits_on_success_and_rolls_back_on_error(tmp_path):
    conn = connect(str(tmp_path / "db.sqlite"))
    conn.execute("CREATE TABLE t (x)")
    with immediate(conn):
        conn.execute("INSERT INTO t VALUES (1)")
    with pytest.raises(RuntimeError):
        with immediate(conn):
            conn.execute("INSERT INTO t VALUES (2)")
            raise RuntimeError("boom")
    assert [row["x"] for row in conn.execute("SELECT x FROM t")] == [1]
    conn.close()


def test_immediate_retries_until_the_lock_frees(tmp_path):
    path = str(tmp_path / "db.sqlite")
    holder = connect(path, timeout_ms=50)
    holder.execute("CREATE TABLE t (x)")
    holder.commit()
    contender = connect(path, timeout_ms=50)

    holder.execute("BEGIN IMMEDIATE")
    holder.execute("INSERT INTO t VALUES (1)")
    naps = []

    def sleep_then_release(seconds: float) -> None:
        # Third backoff: the holder commits, freeing the write lock.
        naps.append(seconds)
        if len(naps) == 3:
            holder.commit()

    with immediate(contender, retries=10, retry_delay=0.001,
                   sleep=sleep_then_release):
        contender.execute("INSERT INTO t VALUES (2)")
    assert len(naps) == 3
    # Linear backoff: each retry waits one step longer.
    assert naps == sorted(naps) and naps[0] < naps[-1]
    rows = sorted(row["x"] for row in holder.execute("SELECT x FROM t"))
    assert rows == [1, 2]
    holder.close()
    contender.close()


def test_immediate_gives_up_after_bounded_retries(tmp_path):
    path = str(tmp_path / "db.sqlite")
    holder = connect(path, timeout_ms=20)
    holder.execute("BEGIN IMMEDIATE")
    contender = connect(path, timeout_ms=20)
    with pytest.raises(sqlite3.OperationalError):
        with immediate(contender, retries=2, retry_delay=0.0,
                       sleep=lambda _: None):
            pass  # pragma: no cover - BEGIN itself fails
    holder.rollback()
    holder.close()
    contender.close()


def test_immediate_rolls_back_when_interrupted(tmp_path):
    """Rollback covers every exception, a KeyboardInterrupt included."""
    conn = connect(str(tmp_path / "db.sqlite"))
    conn.execute("CREATE TABLE t (x)")
    with pytest.raises(KeyboardInterrupt):
        with immediate(conn):
            conn.execute("INSERT INTO t VALUES (1)")
            raise KeyboardInterrupt
    assert not conn.in_transaction
    assert conn.execute("SELECT COUNT(*) FROM t").fetchone()[0] == 0
    conn.close()


class _FlakyBegin:
    """A connection stand-in whose ``BEGIN`` fails *failures* times with
    an ``OperationalError`` carrying *message*."""

    def __init__(self, message: str, failures: int) -> None:
        self.message = message
        self.failures = failures
        self.log = []

    def execute(self, sql: str) -> None:
        self.log.append(sql)
        if sql == "BEGIN IMMEDIATE" and self.failures:
            self.failures -= 1
            raise sqlite3.OperationalError(self.message)

    def commit(self) -> None:
        self.log.append("COMMIT")

    def rollback(self) -> None:
        self.log.append("ROLLBACK")


def test_immediate_retries_a_busy_database_like_a_locked_one():
    conn = _FlakyBegin("database is busy", failures=2)
    naps = []
    with immediate(conn, retries=5, retry_delay=0.01, sleep=naps.append):
        pass
    assert naps == [0.01, 0.02]
    assert conn.log == ["BEGIN IMMEDIATE"] * 3 + ["COMMIT"]


def test_immediate_raises_other_errors_without_retrying():
    conn = _FlakyBegin("disk I/O error", failures=1)
    naps = []
    with pytest.raises(sqlite3.OperationalError, match="disk I/O"):
        with immediate(conn, retries=5, retry_delay=0.01, sleep=naps.append):
            pass  # pragma: no cover - BEGIN itself fails
    assert naps == []
    assert conn.log == ["BEGIN IMMEDIATE"]


_WRITER = textwrap.dedent("""\
    import sys
    from repro.corpusdb import FindingsDB, crash_signature, program_digest

    path, label, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
    print("ready", flush=True)
    sys.stdin.readline()  # the go signal: both writers open the file at once
    with FindingsDB(path) as db:
        campaign = db.open_campaign(f"camp-{label}")
        for index in range(count):
            source = f"int main() {{ return {label!r} < {index!r}; }}"
            signature = crash_signature("buffer-overflow-array",
                                        f"{index}:1", "asan")
            db.ingest_delta(
                campaign,
                seeds=[index],
                programs=[{"program_id": f"s{index:05d}-p000",
                           "seed_index": index, "position": 0,
                           "source": source}],
                hits=[{"kind": "crash", "signature": signature,
                       "subject": "buffer-overflow-array",
                       "crash_site": f"{index}:1", "sanitizer": "asan",
                       "slug": f"slug-{index}",
                       "program_id": f"s{index:05d}-p000",
                       "program_digest": program_digest(source),
                       "config": "gcc -O2 -fsanitize=asan"}],
                outcomes=[{"program_digest": program_digest(source),
                           "compiler": "gcc", "version": "",
                           "pipeline": "-O2", "sanitizer": "asan",
                           "status": "detected", "detail": ""}])
    print("done")
""")


def test_two_processes_ingest_into_one_database(tmp_path):
    """The satellite regression test: two concurrent writer processes,
    every delta lands, nothing deadlocks or double-counts.  Both open the
    new file at the same moment, so both switch it to WAL at once."""
    path = str(tmp_path / "shared.sqlite")
    deltas = 25
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    workers = [
        subprocess.Popen([sys.executable, "-c", _WRITER, path, label,
                          str(deltas)],
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, env=env, text=True)
        for label in ("a", "b")
    ]
    for worker in workers:
        assert worker.stdout.readline().strip() == "ready"
    for worker in workers:
        worker.stdin.write("go\n")
        worker.stdin.flush()
    for worker in workers:
        out, err = worker.communicate(timeout=120)
        assert worker.returncode == 0, err
        assert out.strip() == "done"

    with FindingsDB(path) as db:
        counts = db.summary()
        # Both writers used the same signatures (per index) but distinct
        # program sources, so: shared buckets, per-writer programs/hits.
        assert counts["campaigns"] == 2
        assert counts["buckets"] == deltas
        assert counts["programs"] == 2 * deltas
        assert counts["hits"] == 2 * deltas
        assert counts["outcomes"] == 2 * deltas
        for row in db.query_buckets():
            assert row["count"] == 2
            assert row["campaigns"] == 2
