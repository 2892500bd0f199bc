"""The cross-campaign findings database.

One SQLite file (stdlib :mod:`sqlite3`, WAL — opened through
:mod:`repro.corpusdb.connection`) accumulates what every campaign ever
found:

* ``corpus_programs``  — every tested program, zlib-compressed and keyed
  by the sha256 content digest, stored once no matter how many campaigns
  regenerate it;
* ``corpus_campaigns`` — one row per campaign (keyed by a caller-chosen
  stable key, normally the corpus directory), with its config fingerprint
  and mode;
* ``corpus_buckets``   — deduplicated findings, crash *and* marker kinds,
  keyed by the canonical signature JSON: ``(kind, UB type / marker site,
  crash site, sanitizer, responsible pass)``.  First-seen / last-seen
  campaign and timestamps make recurrence a column, not a replay;
* ``corpus_bucket_hits`` / ``corpus_bucket_campaigns`` — every individual
  finding folded into a bucket, and the per-campaign hit counts;
* ``corpus_outcomes``  — one row per surveyed ``(program, compiler,
  version, pipeline, sanitizer)`` cell, the unit ``--resurvey`` skips;
* ``corpus_reductions``/``corpus_seeds`` — reduced reproducers per bucket
  and the seeds each campaign committed, which a resumed campaign replays
  without writing them again;
* ``corpus_known_bugs`` / ``corpus_attributions`` — the known-bug patch
  database (schema v2): one row per attributed finding, keyed by the
  canonical bucket signature plus the responsible release-timeline event
  the :mod:`repro.triage` bisector converged on, with the bisection
  evidence (window, probe count, edge events) alongside;
* ``corpus_suppressions`` — the auto-suppression ledger: one row per
  (known bug, campaign) that re-found an already-attributed bucket and
  suppressed it instead of re-filing.

All multi-statement writes go through ``BEGIN IMMEDIATE`` transactions
with bounded lock retries (:func:`repro.corpusdb.connection.immediate`),
so concurrent campaigns writing one shared database serialize instead of
corrupting or aborting; every ingest path is idempotent.
"""

from __future__ import annotations

import hashlib
import json
import logging
import sqlite3
import time
import zlib
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.corpusdb.connection import connect, immediate

logger = logging.getLogger(__name__)

#: Schema version, recorded in ``corpus_meta``, where existing files
#: already carry it (``PRAGMA user_version`` stays unused).
#: v2 added the known-bug patch database (``corpus_known_bugs`` /
#: ``corpus_attributions`` / ``corpus_suppressions``); every table is
#: ``CREATE TABLE IF NOT EXISTS``, so v1 files upgrade on open.
CORPUS_SCHEMA_VERSION = 2

#: Bucket kind for sanitizer FN crash findings; marker findings use the
#: marker engine's kind strings (missed-optimization / regression /
#: unsound-elimination) verbatim.
CRASH_KIND = "crash"

SCHEMA = """
CREATE TABLE IF NOT EXISTS corpus_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS corpus_campaigns (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    key         TEXT NOT NULL UNIQUE,
    fingerprint TEXT,
    mode        TEXT NOT NULL DEFAULT 'fuzz',
    root        TEXT,
    created_at  REAL NOT NULL,
    updated_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS corpus_programs (
    digest         TEXT PRIMARY KEY,
    source         BLOB NOT NULL,
    size           INTEGER NOT NULL,
    ub_type        TEXT,
    generator      TEXT,
    first_campaign INTEGER REFERENCES corpus_campaigns(id),
    created_at     REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS corpus_campaign_programs (
    campaign_id   INTEGER NOT NULL REFERENCES corpus_campaigns(id),
    program_id    TEXT NOT NULL,
    seed_index    INTEGER NOT NULL,
    position      INTEGER NOT NULL,
    digest        TEXT NOT NULL REFERENCES corpus_programs(digest),
    fn_candidates INTEGER NOT NULL DEFAULT 0,
    wrong_reports INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (campaign_id, program_id)
);
CREATE TABLE IF NOT EXISTS corpus_seeds (
    campaign_id INTEGER NOT NULL REFERENCES corpus_campaigns(id),
    seed_index  INTEGER NOT NULL,
    PRIMARY KEY (campaign_id, seed_index)
);
CREATE TABLE IF NOT EXISTS corpus_buckets (
    id               INTEGER PRIMARY KEY AUTOINCREMENT,
    kind             TEXT NOT NULL,
    signature        TEXT NOT NULL,
    subject          TEXT NOT NULL DEFAULT '',
    crash_site       TEXT NOT NULL DEFAULT '',
    sanitizer        TEXT NOT NULL DEFAULT '',
    responsible_pass TEXT NOT NULL DEFAULT '',
    compiler         TEXT NOT NULL DEFAULT '',
    slug             TEXT NOT NULL DEFAULT '',
    count            INTEGER NOT NULL DEFAULT 0,
    first_campaign   INTEGER REFERENCES corpus_campaigns(id),
    first_seen_at    REAL NOT NULL,
    last_campaign    INTEGER REFERENCES corpus_campaigns(id),
    last_seen_at     REAL NOT NULL,
    UNIQUE (kind, signature)
);
CREATE INDEX IF NOT EXISTS corpus_buckets_by_kind
    ON corpus_buckets(kind, last_seen_at);
CREATE TABLE IF NOT EXISTS corpus_bucket_campaigns (
    bucket_id   INTEGER NOT NULL REFERENCES corpus_buckets(id),
    campaign_id INTEGER NOT NULL REFERENCES corpus_campaigns(id),
    hits        INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (bucket_id, campaign_id)
);
CREATE TABLE IF NOT EXISTS corpus_bucket_hits (
    bucket_id      INTEGER NOT NULL REFERENCES corpus_buckets(id),
    campaign_id    INTEGER NOT NULL REFERENCES corpus_campaigns(id),
    program_id     TEXT NOT NULL DEFAULT '',
    program_digest TEXT NOT NULL DEFAULT '',
    config         TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS corpus_hits_by_campaign
    ON corpus_bucket_hits(campaign_id, bucket_id);
CREATE TABLE IF NOT EXISTS corpus_outcomes (
    program_digest TEXT NOT NULL,
    compiler       TEXT NOT NULL,
    version        TEXT NOT NULL DEFAULT '',
    pipeline       TEXT NOT NULL DEFAULT '',
    sanitizer      TEXT NOT NULL DEFAULT '',
    status         TEXT NOT NULL DEFAULT '',
    detail         TEXT NOT NULL DEFAULT '',
    campaign_id    INTEGER REFERENCES corpus_campaigns(id),
    recorded_at    REAL NOT NULL,
    PRIMARY KEY (program_digest, compiler, version, pipeline, sanitizer)
);
CREATE TABLE IF NOT EXISTS corpus_reductions (
    bucket_id   INTEGER PRIMARY KEY REFERENCES corpus_buckets(id),
    source      BLOB NOT NULL,
    stats       TEXT NOT NULL DEFAULT '{}',
    campaign_id INTEGER REFERENCES corpus_campaigns(id),
    recorded_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS corpus_known_bugs (
    id                  INTEGER PRIMARY KEY AUTOINCREMENT,
    kind                TEXT NOT NULL,
    signature           TEXT NOT NULL,
    compiler            TEXT NOT NULL DEFAULT '',
    responsible         TEXT NOT NULL,
    introduced_version  INTEGER,
    fixed_version       INTEGER,
    status              TEXT NOT NULL DEFAULT 'open',
    window              TEXT NOT NULL DEFAULT '',
    first_attributed_at REAL NOT NULL,
    UNIQUE (kind, signature, responsible)
);
CREATE INDEX IF NOT EXISTS corpus_known_bugs_by_sig
    ON corpus_known_bugs(kind, signature);
CREATE TABLE IF NOT EXISTS corpus_attributions (
    known_bug_id     INTEGER PRIMARY KEY REFERENCES corpus_known_bugs(id),
    bucket_id        INTEGER REFERENCES corpus_buckets(id),
    observed_version INTEGER,
    introduced_event TEXT NOT NULL DEFAULT '',
    fixed_event      TEXT NOT NULL DEFAULT '',
    probes           INTEGER NOT NULL DEFAULT 0,
    campaign_id      INTEGER REFERENCES corpus_campaigns(id),
    recorded_at      REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS corpus_suppressions (
    known_bug_id INTEGER NOT NULL REFERENCES corpus_known_bugs(id),
    campaign_id  INTEGER NOT NULL REFERENCES corpus_campaigns(id),
    hits         INTEGER NOT NULL DEFAULT 0,
    recorded_at  REAL NOT NULL,
    PRIMARY KEY (known_bug_id, campaign_id)
);
"""


def program_digest(source: str) -> str:
    """The content digest a program is stored under (sha256 hex)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def compress_source(source: str) -> bytes:
    """Sources are stored zlib-compressed (level 6; C sources shrink ~5x)."""
    return zlib.compress(source.encode("utf-8"), 6)


def decompress_source(blob: bytes) -> str:
    return zlib.decompress(blob).decode("utf-8")


def signature_json(parts: Sequence) -> str:
    """Canonical signature encoding: a compact JSON array of strings.

    Shared by ingestion, dedup lookups and the query CLI — one encoding,
    or recurrence detection would silently stop matching."""
    return json.dumps([str(part) for part in parts],
                      separators=(",", ":"))


def crash_signature(ub_type: str, crash_site: str, sanitizer: str) -> str:
    """The crash-bucket signature: (kind, UB type, crash site, sanitizer)."""
    return signature_json((CRASH_KIND, ub_type, crash_site, sanitizer))


def marker_signature(kind: str, compiler: str, function: str, context: str,
                     name: str, responsible_pass: str) -> str:
    """The marker-bucket signature, mirroring
    :attr:`repro.markers.engine.MarkerFinding.bucket`."""
    return signature_json((kind, compiler, function, context, name,
                           responsible_pass))


def outcome_cell(compiler: str, sanitizer: str, pipeline: str,
                 version: str = "") -> Tuple[str, str, str, str]:
    """The key of one surveyed outcome cell, as ``--resurvey`` sees it."""
    return (compiler, str(version), pipeline, sanitizer)


class FindingsDB:
    """The findings database: programs, buckets, outcomes, reductions.

    Open with a path (or ``":memory:"``) and use as a context manager::

        with FindingsDB("findings.sqlite") as db:
            campaign_id = db.open_campaign("corpus/alpha", mode="fuzz")
            for row in db.query_buckets(kind="crash", compiler="gcc"):
                print(row["slug"], row["count"])
    """

    def __init__(self, path: str = ":memory:") -> None:
        self.path = str(path)
        self._conn = connect(self.path)
        with immediate(self._conn):
            self._conn.executescript(SCHEMA)
            self._conn.execute(
                "INSERT OR IGNORE INTO corpus_meta (key, value) "
                "VALUES ('schema_version', ?)", (str(CORPUS_SCHEMA_VERSION),))
            # Opening an older file upgrades it in place: the schema above
            # is purely additive (IF NOT EXISTS), so bumping the recorded
            # version is the whole migration.
            self._conn.execute(
                "UPDATE corpus_meta SET value = ? WHERE key = 'schema_version' "
                "AND CAST(value AS INTEGER) < ?",
                (str(CORPUS_SCHEMA_VERSION), CORPUS_SCHEMA_VERSION))

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "FindingsDB":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def connection(self) -> sqlite3.Connection:
        """The underlying connection (read-only use; writes go through the
        ingest methods so they stay transactional and idempotent)."""
        return self._conn

    def schema_version(self) -> int:
        row = self._conn.execute(
            "SELECT value FROM corpus_meta WHERE key = 'schema_version'"
        ).fetchone()
        return int(row["value"]) if row is not None else 0

    # -- campaigns --------------------------------------------------------------

    def open_campaign(self, key: str, fingerprint: Optional[str] = None,
                      mode: str = "fuzz", root: Optional[str] = None,
                      now: Optional[float] = None) -> int:
        """Return the campaign id for *key*, creating the row if needed.

        *key* is the campaign's stable identity across sessions (the
        corpus directory for orchestrated runs).  Re-opening updates the
        fingerprint/root columns (a resumed campaign) rather than adding a
        second row."""
        stamp = time.time() if now is None else now
        with immediate(self._conn):
            row = self._conn.execute(
                "SELECT id FROM corpus_campaigns WHERE key = ?",
                (key,)).fetchone()
            if row is not None:
                self._conn.execute(
                    "UPDATE corpus_campaigns SET updated_at = ?, "
                    "fingerprint = COALESCE(?, fingerprint), "
                    "root = COALESCE(?, root) WHERE id = ?",
                    (stamp, fingerprint, root, row["id"]))
                return int(row["id"])
            cursor = self._conn.execute(
                "INSERT INTO corpus_campaigns (key, fingerprint, mode, root, "
                "created_at, updated_at) VALUES (?, ?, ?, ?, ?, ?)",
                (key, fingerprint, mode, root, stamp, stamp))
            return int(cursor.lastrowid)

    def campaigns(self) -> List[dict]:
        rows = self._conn.execute(
            "SELECT id, key, fingerprint, mode, root, created_at, updated_at "
            "FROM corpus_campaigns ORDER BY id").fetchall()
        return [dict(row) for row in rows]

    def campaign_id(self, key: str) -> Optional[int]:
        row = self._conn.execute(
            "SELECT id FROM corpus_campaigns WHERE key = ?", (key,)).fetchone()
        return int(row["id"]) if row is not None else None

    # -- delta ingestion --------------------------------------------------------

    def ingest_delta(self, campaign_id: int, *,
                     seeds: Iterable[int] = (),
                     programs: Iterable[dict] = (),
                     hits: Iterable[dict] = (),
                     outcomes: Iterable[dict] = (),
                     reductions: Iterable[dict] = (),
                     now: Optional[float] = None) -> int:
        """Apply one flush delta in a single ``BEGIN IMMEDIATE`` transaction.

        Everything is idempotent (``INSERT OR IGNORE`` keyed rows, an
        explicit hit-dedup guard), so re-applying a delta never
        double-counts.  Returns the number of rows touched — the figure
        the flush-cost benchmark gates on, which must scale with the
        *delta*, never the corpus.
        """
        stamp = time.time() if now is None else now
        ops = 0
        seeds = list(seeds)
        programs = list(programs)
        hits = list(hits)
        outcomes = list(outcomes)
        reductions = list(reductions)
        if not (seeds or programs or hits or outcomes or reductions):
            return 0
        with immediate(self._conn):
            for seed_index in seeds:
                self._conn.execute(
                    "INSERT OR IGNORE INTO corpus_seeds (campaign_id, "
                    "seed_index) VALUES (?, ?)", (campaign_id, seed_index))
                ops += 1
            for record in programs:
                ops += self._ingest_program(campaign_id, record, stamp)
            for record in hits:
                ops += self._ingest_hit(campaign_id, record, stamp)
            for record in outcomes:
                self._conn.execute(
                    "INSERT OR IGNORE INTO corpus_outcomes (program_digest, "
                    "compiler, version, pipeline, sanitizer, status, detail, "
                    "campaign_id, recorded_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (record["program_digest"], record["compiler"],
                     str(record.get("version", "")),
                     record.get("pipeline", ""),
                     record.get("sanitizer", ""),
                     record.get("status", ""), record.get("detail", ""),
                     campaign_id, stamp))
                ops += 1
            for record in reductions:
                ops += self._ingest_reduction(campaign_id, record, stamp)
            self._conn.execute(
                "UPDATE corpus_campaigns SET updated_at = ? WHERE id = ?",
                (stamp, campaign_id))
        return ops

    def _ingest_program(self, campaign_id: int, record: dict,
                        stamp: float) -> int:
        source = record["source"]
        digest = record.get("digest") or program_digest(source)
        self._conn.execute(
            "INSERT OR IGNORE INTO corpus_programs (digest, source, size, "
            "ub_type, generator, first_campaign, created_at) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            (digest, compress_source(source), len(source),
             record.get("ub_type"), record.get("generator"),
             campaign_id, stamp))
        self._conn.execute(
            "INSERT OR REPLACE INTO corpus_campaign_programs (campaign_id, "
            "program_id, seed_index, position, digest, fn_candidates, "
            "wrong_reports) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (campaign_id, record["program_id"], record["seed_index"],
             record["position"], digest,
             record.get("fn_candidates", 0), record.get("wrong_reports", 0)))
        return 2

    def _bucket_id_for(self, record: dict, campaign_id: int,
                       stamp: float) -> int:
        """Find or create the bucket row for one hit's signature."""
        kind, signature = record["kind"], record["signature"]
        row = self._conn.execute(
            "SELECT id FROM corpus_buckets WHERE kind = ? AND signature = ?",
            (kind, signature)).fetchone()
        if row is not None:
            return int(row["id"])
        cursor = self._conn.execute(
            "INSERT INTO corpus_buckets (kind, signature, subject, "
            "crash_site, sanitizer, responsible_pass, compiler, slug, count, "
            "first_campaign, first_seen_at, last_campaign, last_seen_at) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, 0, ?, ?, ?, ?)",
            (kind, signature, record.get("subject", ""),
             record.get("crash_site", ""), record.get("sanitizer", ""),
             record.get("responsible_pass", ""), record.get("compiler", ""),
             record.get("slug", ""), campaign_id, stamp, campaign_id, stamp))
        return int(cursor.lastrowid)

    def _ingest_hit(self, campaign_id: int, record: dict,
                    stamp: float) -> int:
        bucket_id = self._bucket_id_for(record, campaign_id, stamp)
        # Hits are the one append-only table without a natural key, so the
        # dedup guard is explicit: a re-flushed delta (resume re-applying
        # unacknowledged work) must not double-count.
        exists = self._conn.execute(
            "SELECT 1 FROM corpus_bucket_hits WHERE bucket_id = ? AND "
            "campaign_id = ? AND program_id = ? AND config = ?",
            (bucket_id, campaign_id, record.get("program_id", ""),
             record.get("config", ""))).fetchone()
        if exists is not None:
            return 0
        self._conn.execute(
            "INSERT INTO corpus_bucket_hits (bucket_id, campaign_id, "
            "program_id, program_digest, config) VALUES (?, ?, ?, ?, ?)",
            (bucket_id, campaign_id, record.get("program_id", ""),
             record.get("program_digest", ""), record.get("config", "")))
        self._conn.execute(
            "UPDATE corpus_buckets SET count = count + 1, last_campaign = ?, "
            "last_seen_at = ? WHERE id = ?", (campaign_id, stamp, bucket_id))
        self._conn.execute(
            "INSERT INTO corpus_bucket_campaigns (bucket_id, campaign_id, "
            "hits) VALUES (?, ?, 1) ON CONFLICT (bucket_id, campaign_id) "
            "DO UPDATE SET hits = hits + 1", (bucket_id, campaign_id))
        return 3

    def _ingest_reduction(self, campaign_id: int, record: dict,
                          stamp: float) -> int:
        row = self._conn.execute(
            "SELECT id FROM corpus_buckets WHERE kind = ? AND signature = ?",
            (record["kind"], record["signature"])).fetchone()
        if row is None:
            logger.warning("reduction for unknown bucket %s/%s dropped",
                           record["kind"], record["signature"])
            return 0
        self._conn.execute(
            "INSERT OR REPLACE INTO corpus_reductions (bucket_id, source, "
            "stats, campaign_id, recorded_at) VALUES (?, ?, ?, ?, ?)",
            (row["id"], compress_source(record["source"]),
             json.dumps(record.get("stats") or {}, sort_keys=True),
             campaign_id, stamp))
        return 1

    # -- dedup / resurvey lookups ----------------------------------------------

    def find_bucket(self, kind: str, signature: str) -> Optional[dict]:
        """The bucket row for one signature, or None — the cross-campaign
        dedup question ("have we ever seen this?") as a single lookup."""
        row = self._conn.execute(
            "SELECT b.*, fc.key AS first_campaign_key "
            "FROM corpus_buckets b "
            "LEFT JOIN corpus_campaigns fc ON fc.id = b.first_campaign "
            "WHERE b.kind = ? AND b.signature = ?",
            (kind, signature)).fetchone()
        return dict(row) if row is not None else None

    def recorded_cells(self) -> Set[Tuple[str, str, str, str, str]]:
        """Every surveyed ``(digest, compiler, version, pipeline,
        sanitizer)`` cell in the store — the skip set for ``--resurvey``."""
        rows = self._conn.execute(
            "SELECT program_digest, compiler, version, pipeline, sanitizer "
            "FROM corpus_outcomes")
        return {(row["program_digest"], row["compiler"], row["version"],
                 row["pipeline"], row["sanitizer"]) for row in rows}

    def ingested_seeds(self, campaign_id: int) -> List[int]:
        rows = self._conn.execute(
            "SELECT seed_index FROM corpus_seeds WHERE campaign_id = ? "
            "ORDER BY seed_index", (campaign_id,))
        return [row["seed_index"] for row in rows]

    # -- queries ----------------------------------------------------------------

    def get_program(self, digest: str) -> Optional[str]:
        """The stored source for one content digest (decompressed)."""
        row = self._conn.execute(
            "SELECT source FROM corpus_programs WHERE digest = ?",
            (digest,)).fetchone()
        return decompress_source(row["source"]) if row is not None else None

    def bucket_digests(self, bucket_id: int) -> List[str]:
        """Distinct program digests hitting one bucket, first-hit order —
        the query CLI's ``--programs`` listing."""
        rows = self._conn.execute(
            "SELECT program_digest, MIN(rowid) AS seq "
            "FROM corpus_bucket_hits WHERE bucket_id = ? "
            "GROUP BY program_digest ORDER BY seq", (bucket_id,))
        return [row["program_digest"] for row in rows]

    def reduction_for(self, kind: str, signature: str) -> Optional[dict]:
        """The stored reduction of one bucket: ``{"source", "stats",
        "campaign_id"}``, the last naming the campaign that recorded it."""
        row = self._conn.execute(
            "SELECT r.source, r.stats, r.campaign_id FROM corpus_reductions r "
            "JOIN corpus_buckets b ON b.id = r.bucket_id "
            "WHERE b.kind = ? AND b.signature = ?",
            (kind, signature)).fetchone()
        if row is None:
            return None
        return {"source": decompress_source(row["source"]),
                "stats": json.loads(row["stats"]),
                "campaign_id": row["campaign_id"]}

    def query_buckets(self, kind: Optional[str] = None,
                      compiler: Optional[str] = None,
                      bucket: Optional[str] = None,
                      since: Optional[float] = None,
                      campaign: Optional[str] = None) -> List[dict]:
        """Filterable view over the findings corpus, one dict per bucket.

        Filters compose (AND): *kind* exact, *compiler* matches the bucket
        compiler column or any hit config mentioning the compiler,
        *bucket* substring-matches the slug or signature, *since* keeps
        buckets last seen at/after the timestamp, *campaign* restricts to
        buckets a given campaign key hit.  Rows carry recurrence columns:
        ``campaigns`` (how many campaigns hit the bucket) and first/last
        seen identity."""
        sql = ("SELECT b.id, b.kind, b.signature, b.subject, b.crash_site, "
               "b.sanitizer, b.responsible_pass, b.compiler, b.slug, "
               "b.count, b.first_seen_at, b.last_seen_at, "
               "fc.key AS first_campaign_key, lc.key AS last_campaign_key, "
               "(SELECT COUNT(*) FROM corpus_bucket_campaigns bc "
               " WHERE bc.bucket_id = b.id) AS campaigns, "
               "(SELECT COUNT(*) FROM corpus_reductions r "
               " WHERE r.bucket_id = b.id) AS reduced "
               "FROM corpus_buckets b "
               "LEFT JOIN corpus_campaigns fc ON fc.id = b.first_campaign "
               "LEFT JOIN corpus_campaigns lc ON lc.id = b.last_campaign ")
        clauses: List[str] = []
        params: List = []
        if kind is not None:
            clauses.append("b.kind = ?")
            params.append(kind)
        if compiler is not None:
            clauses.append(
                "(b.compiler = ? OR EXISTS (SELECT 1 FROM corpus_bucket_hits "
                "h WHERE h.bucket_id = b.id AND h.config LIKE ?))")
            params.extend([compiler, f"%{compiler}%"])
        if bucket is not None:
            clauses.append("(b.slug LIKE ? OR b.signature LIKE ?)")
            params.extend([f"%{bucket}%", f"%{bucket}%"])
        if since is not None:
            clauses.append("b.last_seen_at >= ?")
            params.append(float(since))
        if campaign is not None:
            clauses.append(
                "EXISTS (SELECT 1 FROM corpus_bucket_campaigns bc "
                "JOIN corpus_campaigns c ON c.id = bc.campaign_id "
                "WHERE bc.bucket_id = b.id AND c.key = ?)")
            params.append(campaign)
        if clauses:
            sql += "WHERE " + " AND ".join(clauses) + " "
        sql += "ORDER BY b.id"
        return [dict(row) for row in self._conn.execute(sql, params)]

    def campaign_recurrence(self) -> List[dict]:
        """Per-campaign recurrence accounting, oldest campaign first.

        For each campaign: how many buckets it hit, how many of those it
        was the *first* to see (``new``), and how many were already known
        from earlier campaigns (``recurrent``) — the cross-campaign dedup
        story in one table."""
        rows = self._conn.execute(
            "SELECT c.id, c.key, c.mode, c.created_at, "
            "COUNT(bc.bucket_id) AS buckets_hit, "
            "COALESCE(SUM(CASE WHEN b.first_campaign = c.id "
            "  THEN 1 ELSE 0 END), 0) AS new_buckets, "
            "COALESCE(SUM(CASE WHEN b.first_campaign != c.id "
            "  THEN 1 ELSE 0 END), 0) AS recurrent_buckets, "
            "COALESCE(SUM(bc.hits), 0) AS hits "
            "FROM corpus_campaigns c "
            "LEFT JOIN corpus_bucket_campaigns bc ON bc.campaign_id = c.id "
            "LEFT JOIN corpus_buckets b ON b.id = bc.bucket_id "
            "GROUP BY c.id ORDER BY c.id")
        return [dict(row) for row in rows]

    def summary(self) -> Dict[str, int]:
        """Row counts per table — the query CLI footer."""
        counts: Dict[str, int] = {}
        for label, table in (("campaigns", "corpus_campaigns"),
                             ("programs", "corpus_programs"),
                             ("buckets", "corpus_buckets"),
                             ("hits", "corpus_bucket_hits"),
                             ("outcomes", "corpus_outcomes"),
                             ("reductions", "corpus_reductions"),
                             ("known_bugs", "corpus_known_bugs"),
                             ("attributions", "corpus_attributions"),
                             ("suppressions", "corpus_suppressions")):
            counts[label] = self._conn.execute(
                f"SELECT COUNT(*) FROM {table}").fetchone()[0]
        return counts

    # -- known-bug patch database -----------------------------------------------

    def record_attribution(self, kind: str, signature: str, *,
                           responsible: str, compiler: str = "",
                           introduced_version: Optional[int] = None,
                           fixed_version: Optional[int] = None,
                           status: str = "open", window: str = "",
                           observed_version: Optional[int] = None,
                           introduced_event: str = "", fixed_event: str = "",
                           probes: int = 0,
                           campaign_id: Optional[int] = None,
                           now: Optional[float] = None) -> int:
        """Upsert one known bug plus its (latest) bisection evidence.

        Known bugs are content-addressed by ``(kind, signature,
        responsible)`` — the bucket's canonical signature plus the
        responsible release-timeline event id — so re-bisecting the same
        finding refreshes the evidence row instead of filing a second bug.
        Returns the known-bug id."""
        stamp = time.time() if now is None else now
        with immediate(self._conn):
            self._conn.execute(
                "INSERT INTO corpus_known_bugs (kind, signature, compiler, "
                "responsible, introduced_version, fixed_version, status, "
                "window, first_attributed_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT (kind, signature, responsible) DO UPDATE SET "
                "compiler = excluded.compiler, "
                "introduced_version = excluded.introduced_version, "
                "fixed_version = excluded.fixed_version, "
                "status = excluded.status, window = excluded.window",
                (kind, signature, compiler, responsible, introduced_version,
                 fixed_version, status, window, stamp))
            known_bug_id = int(self._conn.execute(
                "SELECT id FROM corpus_known_bugs WHERE kind = ? AND "
                "signature = ? AND responsible = ?",
                (kind, signature, responsible)).fetchone()["id"])
            bucket = self._conn.execute(
                "SELECT id FROM corpus_buckets WHERE kind = ? AND "
                "signature = ?", (kind, signature)).fetchone()
            self._conn.execute(
                "INSERT OR REPLACE INTO corpus_attributions (known_bug_id, "
                "bucket_id, observed_version, introduced_event, fixed_event, "
                "probes, campaign_id, recorded_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (known_bug_id, bucket["id"] if bucket is not None else None,
                 observed_version, introduced_event, fixed_event, probes,
                 campaign_id, stamp))
        return known_bug_id

    def known_bugs(self) -> List[dict]:
        """Every attributed bug with its bisection evidence and how many
        campaigns its suppression saved a re-file in."""
        rows = self._conn.execute(
            "SELECT k.id, k.kind, k.signature, k.compiler, k.responsible, "
            "k.introduced_version, k.fixed_version, k.status, k.window, "
            "k.first_attributed_at, b.slug, b.count AS bucket_count, "
            "a.observed_version, a.introduced_event, a.fixed_event, "
            "a.probes, a.recorded_at AS attributed_at, "
            "(SELECT COUNT(*) FROM corpus_suppressions s "
            " WHERE s.known_bug_id = k.id) AS suppressed_campaigns, "
            "(SELECT COALESCE(SUM(s.hits), 0) FROM corpus_suppressions s "
            " WHERE s.known_bug_id = k.id) AS suppressed_hits "
            "FROM corpus_known_bugs k "
            "LEFT JOIN corpus_attributions a ON a.known_bug_id = k.id "
            "LEFT JOIN corpus_buckets b ON b.id = a.bucket_id "
            "ORDER BY k.id")
        return [dict(row) for row in rows]

    def known_bug_index(self) -> Dict[Tuple[str, str], dict]:
        """Attributed signatures → known-bug row, the campaign-side
        suppression lookup (one query at campaign start)."""
        index: Dict[Tuple[str, str], dict] = {}
        for row in self.known_bugs():
            index.setdefault((row["kind"], row["signature"]), row)
        return index

    def record_suppressions(self, campaign_id: int,
                            entries: Iterable[dict],
                            now: Optional[float] = None) -> int:
        """Ledger one campaign's suppressed re-finds.

        *entries* are ``{"kind", "signature", "hits"}`` dicts with the
        campaign's cumulative hit count per suppressed bucket; re-flushing
        keeps the maximum, so resumed deltas never double-count."""
        stamp = time.time() if now is None else now
        entries = list(entries)
        if not entries:
            return 0
        recorded = 0
        with immediate(self._conn):
            for entry in entries:
                row = self._conn.execute(
                    "SELECT id FROM corpus_known_bugs WHERE kind = ? AND "
                    "signature = ? ORDER BY id LIMIT 1",
                    (entry["kind"], entry["signature"])).fetchone()
                if row is None:
                    continue
                self._conn.execute(
                    "INSERT INTO corpus_suppressions (known_bug_id, "
                    "campaign_id, hits, recorded_at) VALUES (?, ?, ?, ?) "
                    "ON CONFLICT (known_bug_id, campaign_id) DO UPDATE SET "
                    "hits = MAX(hits, excluded.hits)",
                    (row["id"], campaign_id,
                     int(entry.get("hits", 1)), stamp))
                recorded += 1
        return recorded

    def suppression_ledger(self, campaign_id: Optional[int] = None
                           ) -> List[dict]:
        """The suppression ledger (optionally one campaign's slice): which
        known bug suppressed which campaign's re-find, with hit counts."""
        sql = ("SELECT s.known_bug_id, s.campaign_id, s.hits, "
               "s.recorded_at, c.key AS campaign_key, k.kind, k.signature, "
               "k.responsible, k.status, b.slug "
               "FROM corpus_suppressions s "
               "JOIN corpus_known_bugs k ON k.id = s.known_bug_id "
               "JOIN corpus_campaigns c ON c.id = s.campaign_id "
               "LEFT JOIN corpus_attributions a ON a.known_bug_id = k.id "
               "LEFT JOIN corpus_buckets b ON b.id = a.bucket_id ")
        params: List = []
        if campaign_id is not None:
            sql += "WHERE s.campaign_id = ? "
            params.append(campaign_id)
        sql += "ORDER BY s.known_bug_id, s.campaign_id"
        return [dict(row) for row in self._conn.execute(sql, params)]

    # -- marker campaigns -------------------------------------------------------

    def ingest_marker_result(self, campaign_key: str, result,
                             fingerprint: Optional[str] = None,
                             now: Optional[float] = None) -> int:
        """Persist a finished marker campaign's deduplicated findings.

        *result* is a :class:`~repro.markers.engine.MarkerCampaignResult`
        (duck-typed: ``buckets`` mapping to objects with a
        ``representative`` :class:`MarkerFinding` and per-bucket counters).
        Each bucket lands under its marker signature with the
        representative's source as the stored program; re-ingesting the
        same campaign key and findings is idempotent.  Returns the
        campaign id.
        """
        campaign_id = self.open_campaign(campaign_key,
                                         fingerprint=fingerprint,
                                         mode="markers", now=now)
        programs: List[dict] = []
        hits: List[dict] = []
        outcomes: List[dict] = []
        for bucket in result.buckets.values():
            finding = bucket.representative
            digest = program_digest(finding.source)
            program_id = (f"s{finding.seed_index:05d}-"
                          f"{finding.marker.name.strip('_')}")
            programs.append({
                "program_id": program_id,
                "seed_index": finding.seed_index,
                "position": 0,
                "source": finding.source,
                "ub_type": None,
                "generator": "marker",
            })
            signature = marker_signature(
                finding.kind, finding.compiler, finding.marker.function,
                finding.marker.context, finding.marker.name,
                finding.responsible_pass)
            site = (f"{finding.marker.function}:{finding.marker.context}:"
                    f"{finding.marker.name}")
            config = f"{finding.compiler}-{finding.version} {finding.opt_level}"
            hits.append({
                "kind": finding.kind,
                "signature": signature,
                "subject": site,
                "responsible_pass": finding.responsible_pass,
                "compiler": finding.compiler,
                "slug": finding.bucket_slug,
                "program_id": program_id,
                "program_digest": digest,
                "config": config,
            })
            outcomes.append({
                "program_digest": digest,
                "compiler": finding.compiler,
                "version": str(finding.version),
                "pipeline": finding.opt_level,
                "sanitizer": "",
                "status": finding.kind,
                "detail": finding.describe(),
            })
        self.ingest_delta(campaign_id, programs=programs, hits=hits,
                          outcomes=outcomes, now=now)
        # Auto-suppression: marker buckets the known-bug patch database
        # already attributes are ledgered against this campaign.
        attributed = self.known_bug_index()
        self.record_suppressions(
            campaign_id,
            ({"kind": hit["kind"], "signature": hit["signature"], "hits": 1}
             for hit in hits
             if (hit["kind"], hit["signature"]) in attributed),
            now=now)
        return campaign_id
