"""Cross-campaign telemetry store: SQLite-backed, append-only, queryable.

Per-campaign telemetry (``telemetry/trace.jsonl`` + ``metrics.json``,
``artifacts/bench_*.json`` records) dies with its directory.
:class:`TelemetryStore` ingests all of it into one SQLite
database (stdlib :mod:`sqlite3`, WAL mode) so questions spanning many runs
— "is the execute stage getting slower across releases?", "what did the
last twenty campaigns measure for cache hit rate?" — become single queries.

Schema (four tables, see :data:`SCHEMA`):

* ``runs``          — one row per ingested campaign, keyed by a content
  digest (re-ingesting the same telemetry is idempotent) and carrying the
  campaign config fingerprint, git sha and health summary;
* ``spans``         — the flattened span trace of each run;
* ``metric_points`` — counters, gauges, histogram statistics and the
  replayed per-stage profile (``stage.<name>.self_seconds`` etc.) of each
  run, one (run, name, kind) point per row;
* ``bench_samples`` — numeric fields of ``bench_<name>.json`` artifacts,
  stamped with git sha / timestamp / hostname by
  ``benchmarks/bench_common.py``, forming the cross-run trajectory that
  ``scripts/check_bench_regression.py`` gates against.

Everything goes through the ``python -m repro.orchestrator db`` subcommand
(``ingest`` / ``query`` / ``trend``); campaigns started with ``--db`` ingest
themselves on completion.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import socket
import sqlite3
import subprocess
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

logger = logging.getLogger(__name__)

#: Bump when the table layout changes; stored in ``PRAGMA user_version``.
STORE_VERSION = 1

SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    digest      TEXT NOT NULL UNIQUE,
    campaign    TEXT,
    git_sha     TEXT,
    source_dir  TEXT,
    ingested_at REAL NOT NULL,
    seeds       INTEGER NOT NULL DEFAULT 0,
    spans       INTEGER NOT NULL DEFAULT 0,
    wall_seconds REAL,
    health      TEXT
);
CREATE TABLE IF NOT EXISTS spans (
    run_id  INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    span_id INTEGER NOT NULL,
    parent  INTEGER,
    scope   INTEGER,
    name    TEXT NOT NULL,
    t       REAL NOT NULL,
    dur     REAL NOT NULL,
    error   TEXT
);
CREATE INDEX IF NOT EXISTS spans_by_run ON spans(run_id, name);
CREATE TABLE IF NOT EXISTS metric_points (
    run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    name   TEXT NOT NULL,
    kind   TEXT NOT NULL,
    value  REAL NOT NULL,
    PRIMARY KEY (run_id, name, kind)
);
CREATE TABLE IF NOT EXISTS bench_samples (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    digest      TEXT NOT NULL,
    bench       TEXT NOT NULL,
    field       TEXT NOT NULL,
    value       REAL NOT NULL,
    git_sha     TEXT,
    hostname    TEXT,
    recorded_at REAL,
    schema      INTEGER,
    UNIQUE (digest, bench, field)
);
CREATE INDEX IF NOT EXISTS bench_by_series ON bench_samples(bench, field, id);
"""


def current_git_sha(cwd: Optional[str] = None) -> str:
    """The current commit sha, or ``"unknown"`` outside a git checkout.

    ``REPRO_GIT_SHA`` overrides the lookup (CI detached-head workflows set
    it from the event payload; tests pin it for stable fixtures).
    """
    override = os.environ.get("REPRO_GIT_SHA")
    if override:
        return override
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              cwd=cwd)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


@dataclass
class RunRecord:
    """One ingested campaign, as returned by :meth:`TelemetryStore.runs`."""

    id: int
    campaign: Optional[str]
    git_sha: Optional[str]
    source_dir: Optional[str]
    ingested_at: float
    seeds: int
    spans: int
    wall_seconds: Optional[float]
    health: Optional[str]

    def to_json(self) -> dict:
        return {
            "id": self.id, "campaign": self.campaign,
            "git_sha": self.git_sha, "source_dir": self.source_dir,
            "ingested_at": self.ingested_at, "seeds": self.seeds,
            "spans": self.spans, "wall_seconds": self.wall_seconds,
            "health": self.health,
        }


@dataclass
class TrendPoint:
    """One observation of a metric series across the stored runs."""

    run_id: int
    campaign: Optional[str]
    git_sha: Optional[str]
    ingested_at: float
    value: float

    def to_json(self) -> dict:
        return {"run": self.run_id, "campaign": self.campaign,
                "git_sha": self.git_sha, "ingested_at": self.ingested_at,
                "value": self.value}


class TelemetryStore:
    """The cross-campaign telemetry database (SQLite, WAL mode).

    Opens (creating if needed) the database at *path* and applies the
    schema.  Use as a context manager or call :meth:`close`::

        with TelemetryStore("observatory.sqlite") as store:
            run_id = store.ingest_campaign("corpus/")
            for point in store.trend("stage.execute.self_seconds"):
                print(point.run_id, point.value)
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        # The shared connection helper (WAL, NORMAL sync, busy timeout)
        # lets one database file host both the telemetry tables and the
        # corpusdb findings tables without the two writers starving each
        # other; the table namespaces (corpus_* vs. runs/spans/...) are
        # disjoint by construction.
        from repro.corpusdb.connection import connect
        self._conn = connect(self.path)
        with self._conn:
            self._conn.executescript(SCHEMA)
            if self._user_version() == 0:
                self._conn.execute(f"PRAGMA user_version={STORE_VERSION}")

    def _user_version(self) -> int:
        return self._conn.execute("PRAGMA user_version").fetchone()[0]

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "TelemetryStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- ingestion --------------------------------------------------------------

    def ingest_campaign(self, campaign_dir: str,
                        git_sha: Optional[str] = None) -> int:
        """Ingest one campaign directory's persisted telemetry; returns the
        run id.

        Reads ``telemetry/trace.jsonl`` and/or ``metrics.json`` (at least
        one must exist — :func:`repro.telemetry.load_profile` raises
        otherwise), including the health record the orchestrator writes
        into ``metrics.json``.  Idempotent: re-ingesting unchanged telemetry
        returns the existing run id; changed telemetry for the same
        directory becomes a new run.
        """
        from repro.telemetry.profile import load_profile, telemetry_paths
        from repro.telemetry.tracer import read_trace

        campaign_dir = os.path.abspath(campaign_dir)
        trace_path, metrics_path = telemetry_paths(campaign_dir)
        digest = hashlib.sha256()
        events: List[dict] = []
        for path in (trace_path, metrics_path):
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        if os.path.exists(trace_path):
            events = read_trace(trace_path)
        profile = load_profile(campaign_dir)
        key = digest.hexdigest()

        existing = self._conn.execute(
            "SELECT id FROM runs WHERE digest = ?", (key,)).fetchone()
        if existing is not None:
            logger.info("campaign %s already ingested as run %d",
                        campaign_dir, existing["id"])
            return int(existing["id"])

        health = self._health_for(metrics_path)
        with self._conn:
            cursor = self._conn.execute(
                "INSERT INTO runs (digest, campaign, git_sha, source_dir, "
                "ingested_at, seeds, spans, wall_seconds, health) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (key, profile.campaign,
                 git_sha if git_sha is not None else current_git_sha(),
                 campaign_dir, time.time(), profile.seed_count,
                 profile.span_count, profile.wall_seconds, health))
            run_id = int(cursor.lastrowid)
            self._conn.executemany(
                "INSERT INTO spans (run_id, span_id, parent, scope, name, "
                "t, dur, error) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                [(run_id, event["id"], event.get("parent"),
                  event.get("scope"), event["name"],
                  event.get("t", 0.0), event.get("dur", 0.0),
                  event.get("error"))
                 for event in events if event.get("ev") == "span"])
            self._conn.executemany(
                "INSERT OR REPLACE INTO metric_points "
                "(run_id, name, kind, value) VALUES (?, ?, ?, ?)",
                self._metric_rows(run_id, profile))
        logger.info("ingested campaign %s as run %d (%d spans)",
                    campaign_dir, run_id, profile.span_count)
        return run_id

    @staticmethod
    def _health_for(metrics_path: str) -> Optional[str]:
        """The health status a finished campaign left in its metrics.json."""
        try:
            with open(metrics_path, "r", encoding="utf-8") as handle:
                snapshot = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        health = snapshot.get("health")
        return health.get("status") if isinstance(health, dict) else None

    @staticmethod
    def _metric_rows(run_id: int, profile) -> List[Tuple]:
        rows: List[Tuple] = []
        snapshot = profile.metrics.to_json()
        for name, value in snapshot["counters"].items():
            rows.append((run_id, name, "counter", float(value)))
        for name, value in snapshot["gauges"].items():
            rows.append((run_id, name, "gauge", float(value)))
        for name, data in snapshot["histograms"].items():
            rows.append((run_id, f"{name}.count", "histogram",
                         float(data["count"])))
            rows.append((run_id, f"{name}.sum", "histogram",
                         float(data["sum"])))
        # The replayed profile: the queryable form of `stats` (self time is
        # what trend analysis wants — inclusive time double-counts nesting).
        for stage in profile.stages:
            rows.append((run_id, f"stage.{stage.name}.calls", "profile",
                         float(stage.calls)))
            rows.append((run_id, f"stage.{stage.name}.total_seconds",
                         "profile", stage.total_seconds))
            rows.append((run_id, f"stage.{stage.name}.self_seconds",
                         "profile", stage.self_seconds))
        if profile.wall_seconds is not None:
            rows.append((run_id, "campaign.wall_seconds", "profile",
                         profile.wall_seconds))
        return rows

    def ingest_bench_file(self, path: str) -> int:
        """Ingest one ``bench_<name>.json`` artifact; returns samples added.

        Every numeric field becomes one ``bench_samples`` row carrying the
        artifact's stamp (git sha, timestamp, hostname — absent on
        pre-stamping schema-1 records).  Idempotent per file content.
        """
        with open(path, "rb") as handle:
            raw = handle.read()
        record = json.loads(raw.decode("utf-8"))
        bench = record.get("bench") or os.path.basename(path)
        digest = hashlib.sha256(raw).hexdigest()
        stamp = record.get("stamp") or {}
        rows = [
            (digest, bench, field, float(value), stamp.get("git_sha"),
             stamp.get("hostname"), stamp.get("recorded_at"),
             record.get("schema", 1))
            for field, value in sorted(record.items())
            if isinstance(value, (int, float)) and not isinstance(value, bool)
            and field not in ("schema",)
        ]
        with self._conn:
            added = 0
            for row in rows:
                cursor = self._conn.execute(
                    "INSERT OR IGNORE INTO bench_samples (digest, bench, "
                    "field, value, git_sha, hostname, recorded_at, schema) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?)", row)
                added += cursor.rowcount
        return added

    def ingest_bench_dir(self, directory: str) -> Dict[str, int]:
        """Ingest every ``bench_*.json`` under *directory* (sorted order);
        returns ``{filename: samples added}``."""
        results: Dict[str, int] = {}
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            return results
        for name in names:
            if name.startswith("bench_") and name.endswith(".json"):
                path = os.path.join(directory, name)
                try:
                    results[name] = self.ingest_bench_file(path)
                except (json.JSONDecodeError, ValueError) as exc:
                    logger.warning("skipping unreadable bench artifact %s "
                                   "(%s)", path, exc)
        return results

    # -- queries ----------------------------------------------------------------

    def runs(self, campaign: Optional[str] = None,
             last: Optional[int] = None) -> List[RunRecord]:
        """Ingested runs, oldest first; filter by campaign fingerprint."""
        sql = ("SELECT id, campaign, git_sha, source_dir, ingested_at, "
               "seeds, spans, wall_seconds, health FROM runs")
        params: list = []
        if campaign is not None:
            sql += " WHERE campaign = ?"
            params.append(campaign)
        sql += " ORDER BY id DESC"
        if last is not None:
            sql += " LIMIT ?"
            params.append(int(last))
        rows = self._conn.execute(sql, params).fetchall()
        return [RunRecord(id=row["id"], campaign=row["campaign"],
                          git_sha=row["git_sha"],
                          source_dir=row["source_dir"],
                          ingested_at=row["ingested_at"], seeds=row["seeds"],
                          spans=row["spans"],
                          wall_seconds=row["wall_seconds"],
                          health=row["health"])
                for row in reversed(rows)]

    def metric_names(self, run_id: Optional[int] = None) -> List[str]:
        """Every metric name in the store (or in one run), sorted."""
        if run_id is None:
            rows = self._conn.execute(
                "SELECT DISTINCT name FROM metric_points ORDER BY name")
        else:
            rows = self._conn.execute(
                "SELECT DISTINCT name FROM metric_points WHERE run_id = ? "
                "ORDER BY name", (run_id,))
        return [row["name"] for row in rows]

    def trend(self, metric: str, last: int = 20,
              campaign: Optional[str] = None) -> List[TrendPoint]:
        """The series of *metric* over the last *last* runs, oldest first."""
        sql = ("SELECT m.run_id, r.campaign, r.git_sha, r.ingested_at, "
               "m.value FROM metric_points m JOIN runs r ON r.id = m.run_id "
               "WHERE m.name = ?")
        params: list = [metric]
        if campaign is not None:
            sql += " AND r.campaign = ?"
            params.append(campaign)
        sql += " ORDER BY m.run_id DESC LIMIT ?"
        params.append(int(last))
        rows = self._conn.execute(sql, params).fetchall()
        return [TrendPoint(run_id=row["run_id"], campaign=row["campaign"],
                           git_sha=row["git_sha"],
                           ingested_at=row["ingested_at"],
                           value=row["value"])
                for row in reversed(rows)]

    def bench_series(self, bench: str, field: str,
                     last: int = 20) -> List[dict]:
        """The last *last* samples of one bench field, oldest first."""
        rows = self._conn.execute(
            "SELECT id, value, git_sha, hostname, recorded_at, schema "
            "FROM bench_samples WHERE bench = ? AND field = ? "
            "ORDER BY id DESC LIMIT ?", (bench, field, int(last))).fetchall()
        return [dict(row) for row in reversed(rows)]

    def bench_fields(self, bench: Optional[str] = None) -> List[Tuple[str, str]]:
        """Distinct ``(bench, field)`` series present in the store."""
        sql = "SELECT DISTINCT bench, field FROM bench_samples"
        params: list = []
        if bench is not None:
            sql += " WHERE bench = ?"
            params.append(bench)
        sql += " ORDER BY bench, field"
        return [(row["bench"], row["field"])
                for row in self._conn.execute(sql, params)]

    def span_durations(self, name: str,
                       run_id: Optional[int] = None) -> List[float]:
        """All recorded durations of spans called *name* (one run or all)."""
        if run_id is None:
            rows = self._conn.execute(
                "SELECT dur FROM spans WHERE name = ? ORDER BY run_id, "
                "span_id", (name,))
        else:
            rows = self._conn.execute(
                "SELECT dur FROM spans WHERE name = ? AND run_id = ? "
                "ORDER BY span_id", (name, run_id))
        return [row["dur"] for row in rows]

    def summary(self) -> dict:
        """Row counts per table — the `db query` footer."""
        counts = {}
        for table in ("runs", "spans", "metric_points", "bench_samples"):
            counts[table] = self._conn.execute(
                f"SELECT COUNT(*) FROM {table}").fetchone()[0]
        return counts


def stamp_fields() -> dict:
    """The provenance stamp bench artifact writers attach (see
    ``benchmarks/bench_common.py``): git sha, wall-clock timestamp and
    hostname — everything store ingestion and regression baselines key on."""
    return {
        "git_sha": current_git_sha(),
        "recorded_at": time.time(),
        "hostname": socket.gethostname(),
    }
