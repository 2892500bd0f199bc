"""Persistent corpus store and crash-deduplication index.

Long campaigns produce far more UB programs and raw discrepancies than
distinct bugs.  The corpus store keeps every tested program and buckets
every FN-bug candidate by ``(UB type, crash site, sanitizer)`` — the same
signature the paper's authors used to avoid re-triaging duplicates: two
candidates whose UB, mapped crash location and missing sanitizer all agree
almost always share a root cause.

The store is a façade over :class:`repro.corpusdb.FindingsDB`, the only
persisted copy of a campaign's corpus: programs (zlib-compressed,
content-addressed), buckets, surveyed outcome cells and reductions all
land in SQLite (``<root>/corpus.sqlite`` by default, or a shared
``db_path``).  The in-memory view (``programs``, ``buckets`` and the
counters) keeps the dict API that the campaign, reduction wiring and tests
consume, and it is rebuilt one way only: by replaying seed batches through
:meth:`CorpusStore.ingest`.  A store opened over an existing database
starts empty; a resumed campaign replays its checkpointed seeds into it,
and seeds the database already holds queue no rows.  ``flush()`` commits
only the *delta* accumulated since the previous flush — one ``BEGIN
IMMEDIATE`` transaction whose cost scales with new work, never with corpus
size.  The orchestrator flushes every fresh seed before its checkpoint
records it, so each seed the checkpoint calls done is already in the
database.

Because the database outlives any one campaign, the store also answers
the cross-campaign question at ingestion time: a bucket whose signature
was first recorded by an *earlier* campaign is flagged as a recurrence
(``CrashBucket.first_seen``) instead of presenting as a new finding.

The store is an *observability* layer: it never influences which bugs the
campaign reports (that stays with the triager, so parallel and serial runs
match), but it answers "what did five months of fuzzing actually produce"
without replaying the campaign.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.crash_site import format_crash_site
from repro.core.fuzzer import SeedBatch
from repro.corpusdb import (CRASH_KIND, FindingsDB, crash_signature,
                             program_digest)

logger = logging.getLogger(__name__)

#: A dedup bucket key: (ub_type value, crash site "line:col" or "?", sanitizer).
BucketKey = Tuple[str, str, str]


def bucket_key_for(candidate) -> BucketKey:
    """The dedup bucket key of one FN-bug candidate.

    The single definition shared by ingestion, per-bucket reduction and the
    examples — the three must agree or reduced reproducers would silently
    stop matching their buckets."""
    return (candidate.program.ub_type.value,
            format_crash_site(candidate.crash_site),
            candidate.missing.config.sanitizer)


def bucket_slug(key: BucketKey) -> str:
    """Filesystem-safe bucket name, e.g. ``divide-by-zero-7_3-ubsan``.

    Used both for ``reduced/<slug>.c`` filenames and for the labels shown
    in progress lines and the reduction-quality table, so a reported label
    always greps to its corpus file."""
    ub_type, site, sanitizer = key
    site = site.replace(":", "_").replace("?", "unknown")
    return f"{ub_type}-{site}-{sanitizer}"


def signature_for(key: BucketKey) -> str:
    """The database signature of one crash bucket key."""
    return crash_signature(*key)


@dataclass
class CrashBucket:
    """All FN-bug candidates sharing one (UB type, crash site, sanitizer)."""

    ub_type: str
    crash_site: str
    sanitizer: str
    count: int = 0
    program_ids: List[str] = field(default_factory=list)
    configs: List[str] = field(default_factory=list)
    #: Cross-campaign provenance: ``{"campaign": key, "at": timestamp}`` of
    #: the campaign that first recorded this signature, set when the bucket
    #: is a *recurrence* (first seen by an earlier campaign in the shared
    #: findings database); ``None`` for buckets this campaign opened.
    first_seen: Optional[dict] = None
    #: Auto-suppression: the responsible event id from the known-bug patch
    #: database when this signature was already attributed by a bisection —
    #: the bucket is ledgered (``corpus_suppressions``) instead of
    #: presenting as a new finding.  ``None`` for unattributed buckets.
    suppressed_by: Optional[str] = None

    @property
    def key(self) -> BucketKey:
        return (self.ub_type, self.crash_site, self.sanitizer)

    @property
    def slug(self) -> str:
        """Filesystem-safe bucket name (see :func:`bucket_slug`)."""
        return bucket_slug(self.key)

    @property
    def recurrence(self) -> bool:
        """True when an earlier campaign already recorded this signature."""
        return self.first_seen is not None


def _cell_status(cell) -> str:
    """Classify one configuration's cell for its database row."""
    if cell.verdict is None:
        return "compile-error"
    return "detected" if cell.detected else "silent"


class CorpusStore:
    """Stores tested programs and deduplicates their crashes.

    With ``root=None`` everything lives in an in-memory database; with a
    directory, the findings database lives at ``<root>/corpus.sqlite`` (or
    the shared ``db_path``, letting many campaigns accumulate into one
    file), and it holds the only persisted copy of each program.  The
    in-memory view starts empty and fills only through :meth:`ingest`,
    which is idempotent per seed index; a seed this campaign already
    persisted updates the view without queueing rows, so replaying a
    resumed campaign's seeds cannot double-count.
    """

    DB_NAME = "corpus.sqlite"

    def __init__(self, root: Optional[str] = None,
                 db_path: Optional[str] = None,
                 campaign_key: Optional[str] = None) -> None:
        self.root = str(root) if root is not None else None
        self.programs: Dict[str, dict] = {}
        self.buckets: Dict[BucketKey, CrashBucket] = {}
        self._ingested_seeds: set = set()
        #: Buckets this campaign opened that no earlier campaign in the
        #: shared database had recorded / had already recorded.
        self.new_global_buckets = 0
        self.recurrent_buckets = 0
        #: Buckets whose signature the known-bug patch database already
        #: attributes to a responsible event: reported once with a
        #: ``suppressed_by`` line, ledgered, never re-filed as new.
        self.suppressed_buckets = 0
        self._suppressed_hits: Dict[BucketKey, int] = {}
        #: Rows the most recent :meth:`flush` wrote — the figure the
        #: flush-cost benchmark gates on (O(delta), never O(corpus)).
        self.last_flush_ops = 0
        self._pending_seeds: List[int] = []
        self._pending_programs: List[dict] = []
        self._pending_hits: List[dict] = []
        self._pending_outcomes: List[dict] = []
        self._pending_reductions: List[dict] = []
        if db_path is None:
            db_path = (os.path.join(self.root, self.DB_NAME)
                       if self.root is not None else ":memory:")
        self.db_path = str(db_path)
        self.campaign_key = campaign_key or (
            os.path.abspath(self.root) if self.root is not None else "<memory>")
        self.db = FindingsDB(self.db_path)
        self.campaign_id = self.db.open_campaign(self.campaign_key,
                                                 root=self.root)
        #: Seeds an earlier session of this campaign already committed:
        #: replaying them rebuilds the view but writes nothing.
        self._persisted_seeds = frozenset(
            self.db.ingested_seeds(self.campaign_id))
        #: The known-bug patch database's attributed signatures, loaded
        #: once at campaign start — the auto-suppression lookup.
        self._known_bugs = self.db.known_bug_index()

    def close(self) -> None:
        self.db.close()

    # -- ingestion -------------------------------------------------------------

    def ingest(self, batch: SeedBatch) -> int:
        """Record one seed batch; returns how many *new* crash buckets opened.

        The view (programs, buckets, counters) always updates.  Database
        rows are queued only for a seed this campaign has not persisted
        yet, so a flush stays O(delta)."""
        if batch.seed_index in self._ingested_seeds:
            return 0
        self._ingested_seeds.add(batch.seed_index)
        persist = batch.seed_index not in self._persisted_seeds
        if persist:
            self._pending_seeds.append(batch.seed_index)
        new_buckets = 0
        for position, diff in enumerate(batch.diff_results):
            program_id = f"s{batch.seed_index:05d}-p{position:03d}"
            program = {
                "seed_index": batch.seed_index,
                "position": position,
                "ub_type": diff.program.ub_type.value,
                "generator": diff.program.generator,
                "fn_candidates": len(diff.fn_candidates),
                "wrong_reports": len(diff.wrong_report_candidates),
            }
            self.programs[program_id] = program
            if persist:
                source = diff.program.source
                digest = program_digest(source)
                self._pending_programs.append(
                    {"program_id": program_id, "source": source, **program})
                # Every surveyed (program, config) cell becomes an
                # outcome row.
                for cell in diff.cells:
                    config = cell.config
                    self._pending_outcomes.append({
                        "program_digest": digest,
                        "compiler": config.compiler,
                        "version": "",
                        "pipeline": config.opt_level,
                        "sanitizer": config.sanitizer,
                        "status": _cell_status(cell),
                        "detail": cell.error or "",
                    })
            for candidate in diff.fn_candidates:
                key = bucket_key_for(candidate)
                if self._add_crash(program_id, key, candidate.missing.config):
                    new_buckets += 1
                if persist:
                    self._pending_hits.append({
                        "kind": CRASH_KIND,
                        "signature": signature_for(key),
                        "subject": key[0],
                        "crash_site": key[1],
                        "sanitizer": key[2],
                        "slug": bucket_slug(key),
                        "program_id": program_id,
                        "program_digest": digest,
                        "config": candidate.missing.config.label,
                    })
        return new_buckets

    def _add_crash(self, program_id: str, key: BucketKey,
                   missing_config) -> bool:
        ub_type, site, _ = key
        bucket = self.buckets.get(key)
        is_new = bucket is None
        if bucket is None:
            bucket = CrashBucket(ub_type=ub_type, crash_site=site,
                                 sanitizer=missing_config.sanitizer)
            bucket.first_seen = self._earlier_sighting(key)
            known = self._known_bugs.get((CRASH_KIND, signature_for(key)))
            if known is not None:
                # Already attributed: report once with the responsible
                # event, ledger the sighting, never count it as a find.
                bucket.suppressed_by = known["responsible"]
                self.suppressed_buckets += 1
            elif bucket.first_seen is None:
                self.new_global_buckets += 1
            else:
                self.recurrent_buckets += 1
            self.buckets[key] = bucket
        if bucket.suppressed_by is not None:
            self._suppressed_hits[key] = self._suppressed_hits.get(key, 0) + 1
        bucket.count += 1
        if program_id not in bucket.program_ids:
            bucket.program_ids.append(program_id)
        label = missing_config.label
        if label not in bucket.configs:
            bucket.configs.append(label)
        return is_new

    def _earlier_sighting(self, key: BucketKey) -> Optional[dict]:
        """Cross-campaign dedup: did an earlier campaign record this
        signature?  Returns its provenance, or None for a fresh bucket."""
        row = self.db.find_bucket(CRASH_KIND, signature_for(key))
        if row is None or row["first_campaign"] == self.campaign_id:
            return None
        return {"campaign": row["first_campaign_key"],
                "at": row["first_seen_at"]}

    # -- reduction -------------------------------------------------------------

    def record_reduction(self, key: BucketKey, reduced_source: str,
                         stats: Optional[dict] = None) -> Optional[str]:
        """Attach a reduced reproducer to one crash bucket.

        The source and stats persist into the findings database on the
        next flush.  Persistent stores also export the source as
        ``<root>/reduced/<bucket-slug>.c`` and return that path (None in
        memory)."""
        if key not in self.buckets:
            raise KeyError(f"no crash bucket {key!r}")
        self._pending_reductions.append({
            "kind": CRASH_KIND,
            "signature": signature_for(key),
            "source": reduced_source,
            "stats": dict(stats or {}),
        })
        if self.root is None:
            return None
        directory = os.path.join(self.root, "reduced")
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, bucket_slug(key) + ".c")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(reduced_source)
        return path

    # -- queries ---------------------------------------------------------------

    @property
    def unique_crashes(self) -> int:
        return len(self.buckets)

    @property
    def total_crashes(self) -> int:
        return sum(bucket.count for bucket in self.buckets.values())

    def summary(self) -> dict:
        return {
            "programs": len(self.programs),
            "crashes": self.total_crashes,
            "unique_crashes": self.unique_crashes,
            "new_buckets": self.new_global_buckets,
            "recurrent_buckets": self.recurrent_buckets,
            "suppressed_buckets": self.suppressed_buckets,
        }

    def suppressions(self) -> List[dict]:
        """This campaign's suppression ledger lines, one per suppressed
        bucket: slug, responsible event and hit count."""
        lines = []
        for key, bucket in sorted(self.buckets.items()):
            if bucket.suppressed_by is None:
                continue
            lines.append({"slug": bucket.slug,
                          "suppressed_by": bucket.suppressed_by,
                          "hits": bucket.count})
        return lines

    # -- persistence -----------------------------------------------------------

    def flush(self) -> None:
        """Commit the delta accumulated since the last flush.

        One ``BEGIN IMMEDIATE`` transaction whose row count scales with the
        new seeds/programs/hits since the previous flush — never with how
        big the corpus already is."""
        self.last_flush_ops = self.db.ingest_delta(
            self.campaign_id,
            seeds=self._pending_seeds,
            programs=self._pending_programs,
            hits=self._pending_hits,
            outcomes=self._pending_outcomes,
            reductions=self._pending_reductions)
        if self._suppressed_hits:
            # Cumulative per-bucket counts; the DB keeps the max, so a
            # re-flushed delta after resume cannot double-count.
            self.db.record_suppressions(
                self.campaign_id,
                ({"kind": CRASH_KIND, "signature": signature_for(key),
                  "hits": hits}
                 for key, hits in self._suppressed_hits.items()))
        if self.last_flush_ops:
            logger.debug("flushed corpus delta to %s (%d rows)",
                         self.db_path, self.last_flush_ops)
        self._pending_seeds = []
        self._pending_programs = []
        self._pending_hits = []
        self._pending_outcomes = []
        self._pending_reductions = []
