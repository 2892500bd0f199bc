"""The campaign orchestrator: sharded execution with checkpoint/resume.

:class:`OrchestratedCampaign` wraps a :class:`~repro.core.fuzzer.FuzzingCampaign`
with the production machinery the serial loop lacks:

* **sharded execution** — seed work-items run on a pluggable executor
  (serial or a ``multiprocessing`` pool); per-seed RNG derivation makes the
  merged result bit-identical to a serial run;
* **checkpoint/resume** — completed seeds are snapshotted to JSON after every
  batch, so a killed campaign resumes from where it stopped and finishes with
  the same deduplicated bug reports as an uninterrupted one;
* **corpus store + crash dedup** — every tested program and every FN-bug
  candidate is recorded, bucketed by (UB type, crash site, sanitizer);
* **crash reduction** — with ``reduce=True`` each dedup bucket's
  representative program is shrunk to a minimal reproducer after the merge
  (``reduce_jobs`` fans candidate evaluation out over processes) and the
  result is persisted as ``reduced/<bucket>.c`` in the corpus; resumed
  campaigns restore already-reduced buckets instead of re-reducing them.
  (The separate triage-time knob ``CampaignConfig.reduce`` shrinks every
  candidate before defect bisection — see its docstring.);
* **live stats** — throughput and ETA stream through a
  :class:`~repro.orchestrator.stats.ThroughputMonitor`.
"""

from __future__ import annotations

import logging
import os
import time
from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.core.fuzzer import (
    CampaignConfig,
    CampaignResult,
    FuzzingCampaign,
    SeedBatch,
)
from repro.orchestrator.checkpoint import CampaignCheckpoint
from repro.orchestrator.corpus import (
    BucketKey,
    CorpusStore,
    bucket_key_for,
    bucket_slug,
)
from repro.orchestrator.executor import Executor, make_executor
from repro.orchestrator.records import config_fingerprint
from repro.orchestrator.stats import ThroughputMonitor
from repro.reduction import ReductionRecord, record_for, reduce_fn_candidate
from repro.telemetry import runtime as telemetry
from repro.telemetry.monitor import HealthMonitor
from repro.telemetry.profile import telemetry_paths
from repro.utils.io import atomic_write_json

logger = logging.getLogger(__name__)


class OrchestratedCampaign:
    """Runs a fuzzing or marker campaign through the orchestration engine.

    ``workers=1`` (the default) runs serially in-process; ``workers=N``
    shards seeds across N worker processes.  Either way the deduplicated
    bug reports are identical for the same config and ``rng_seed``.

    Passing a :class:`~repro.markers.engine.MarkerCampaignConfig` selects
    **marker mode** (the CLI's ``--mode markers``): the same executor
    shards marked-program surveys, the same monitor streams progress, and
    ``reduce=True`` shrinks one representative finding per dedup bucket via
    :func:`repro.reduction.reduce_marker_finding`.  Checkpoint/corpus
    storage is fuzzing-specific and rejected in marker mode.
    """

    def __init__(self, config: Optional[CampaignConfig] = None,
                 workers: int = 1,
                 executor: Optional[Executor] = None,
                 checkpoint_path: Optional[str] = None,
                 checkpoint_interval: int = 1,
                 corpus: Union[CorpusStore, str, None] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 max_seeds_per_session: Optional[int] = None,
                 reduce: bool = False,
                 reduce_jobs: int = 1,
                 trace: bool = False,
                 db_path: Optional[str] = None,
                 resurvey: bool = False,
                 health_monitor: Optional[HealthMonitor] = None) -> None:
        self.config = config if config is not None else CampaignConfig()
        if not isinstance(self.config, CampaignConfig):
            if checkpoint_path is not None or corpus is not None:
                raise ValueError(
                    "checkpoint/corpus storage is only supported for "
                    "fuzzing campaigns, not marker campaigns")
            if max_seeds_per_session is not None:
                raise ValueError(
                    "max_seeds_per_session requires checkpoint/resume, "
                    "which marker campaigns do not support — a capped run "
                    "would silently return a partial result")
            if resurvey:
                raise ValueError(
                    "resurvey applies to fuzzing campaigns; marker "
                    "campaigns dedupe by bucket signature instead")
        self.executor = executor if executor is not None else make_executor(workers)
        self.checkpoint = (CampaignCheckpoint(checkpoint_path, self.config,
                                              flush_interval=checkpoint_interval)
                           if checkpoint_path is not None else None)
        if isinstance(corpus, (str, bytes)):
            # A shared --db file also hosts the findings tables, so two
            # campaigns over different corpus dirs dedupe against each
            # other; without one the store keeps a per-corpus database.
            corpus = CorpusStore(root=corpus, db_path=db_path)
        self.corpus = corpus
        self.progress = progress
        self.max_seeds_per_session = max_seeds_per_session
        self.reduce = reduce
        self.reduce_jobs = reduce_jobs
        self.trace = trace
        if trace and (self.corpus is None or self.corpus.root is None):
            raise ValueError(
                "trace=True requires a persistent corpus (corpus=<dir>) to "
                "hold telemetry/trace.jsonl")
        self.db_path = db_path
        if (db_path is not None and isinstance(self.config, CampaignConfig)
                and (self.corpus is None or self.corpus.root is None)):
            raise ValueError(
                "db_path requires a persistent corpus (corpus=<dir>): "
                "store ingestion reads the telemetry the corpus persists")
        self.resurvey = resurvey
        if resurvey and self.corpus is None:
            raise ValueError(
                "resurvey needs a corpus store: the skip set is the "
                "findings database's recorded outcome cells")
        #: Resurvey accounting over freshly executed batches (run()).
        self.surveyed_cells = 0
        self.skipped_cells = 0
        self._survey_skip: frozenset = frozenset()
        #: Populated by run(); exposes live throughput/ETA while running.
        self.monitor: Optional[ThroughputMonitor] = None
        #: Stall/straggler detection over freshly executed batches; the
        #: summary lands in checkpoint metadata and the corpus index.
        self.health = (health_monitor if health_monitor is not None
                       else HealthMonitor())
        #: Run id assigned by the telemetry store when ``db_path`` is set.
        self.db_run_id: Optional[int] = None
        #: Seed indices restored from the checkpoint on the last run().
        self.resumed_indices: list[int] = []
        #: Per-bucket reduction records from the last run() (``reduce=True``).
        self.reductions: List[ReductionRecord] = []
        #: Merged telemetry summary of the last run(): deterministic metric
        #: totals plus the compilation-cache hit/miss/eviction counters.
        self.telemetry_summary: Optional[dict] = None
        #: Marker-mode suppression ledger rows from the last run(): buckets
        #: the known-bug patch database already attributes (``--db`` only).
        self.marker_suppressions: List[dict] = []

    # -- public ----------------------------------------------------------------

    def run(self):
        """Execute (or resume) the campaign and return the merged result.

        Returns a :class:`~repro.core.fuzzer.CampaignResult` (fuzzing
        config) or a :class:`~repro.markers.engine.MarkerCampaignResult`
        (marker config).

        Metrics are collected for every orchestrated run (the overhead is a
        handful of counter bumps per compile); ``trace=True`` additionally
        records spans to ``<corpus>/telemetry/trace.jsonl``.  An already
        active :func:`repro.telemetry.enable` session is reused (and left
        open) instead."""
        session, owned = self._begin_telemetry()
        try:
            self._emit_campaign_start()
            with telemetry.span("campaign", workers=self.executor.workers,
                                seeds=self.config.num_seeds):
                if isinstance(self.config, CampaignConfig):
                    result = self._run_fuzzing()
                else:
                    result = self._run_markers()
            self._finish_telemetry(session)
            self._ingest_into_store()
            return result
        finally:
            if owned:
                telemetry.disable()

    def _run_fuzzing(self) -> CampaignResult:
        campaign = FuzzingCampaign(self.config)
        completed: Dict[int, SeedBatch] = (self.checkpoint.load()
                                           if self.checkpoint is not None else {})
        self.resumed_indices = sorted(completed)
        pending = [index for index in range(self.config.num_seeds)
                   if index not in completed]
        if self.max_seeds_per_session is not None:
            pending = pending[:self.max_seeds_per_session]
        self._survey_skip = frozenset()
        if self.resurvey:
            self._survey_skip = frozenset(self.corpus.recorded_cells())
            logger.info("resurvey: %d recorded outcome cells eligible to "
                        "skip", len(self._survey_skip))
        logger.info("campaign start: %d seeds (%d restored), %d workers",
                    self.config.num_seeds, len(completed),
                    self.executor.workers)
        self.monitor = ThroughputMonitor(self.config.num_seeds, emit=self.progress)
        self.monitor.start()
        self.health.start()
        result = campaign.collect(self._merged_batches(completed, pending))
        if self.reduce:
            self.reductions = self._reduce_buckets(campaign, result)
            if self.corpus is not None:
                self.corpus.flush()
        logger.info("campaign finished: %d seeds, %d programs, %d reports "
                    "in %.1fs", result.stats.seeds_used,
                    result.stats.programs_tested, len(result.bug_reports),
                    result.stats.duration_seconds)
        return result

    # -- telemetry lifecycle ----------------------------------------------------

    def _emit_campaign_start(self) -> None:
        """Write a start-of-campaign meta event into the trace stream.

        The `watch` subcommand reads it for seed totals / worker count /
        wall-clock anchor — span events alone cannot provide those until
        the campaign *finishes* (the campaign span closes last)."""
        active = telemetry.tracer()
        if active is None:
            return
        active.emit({"ev": "campaign_start", "seeds": self.config.num_seeds,
                     "workers": self.executor.workers, "time": time.time()})

    def _begin_telemetry(self):
        """Install (or adopt) the telemetry session for this run.

        Returns ``(session, owned)``; an externally enabled session is
        adopted and never torn down here."""
        existing = telemetry.current()
        if existing is not None:
            return existing, False
        trace_path = None
        if self.trace:
            trace_path = telemetry_paths(self.corpus.root)[0]
        session = telemetry.enable(campaign=config_fingerprint(self.config),
                                   tracing=self.trace, trace_path=trace_path)
        return session, True

    def _finish_telemetry(self, session) -> None:
        """Summarize merged metrics; persist them with the campaign state."""
        if session is None:
            return
        registry = session.metrics
        summary = {
            "campaign": session.campaign,
            "totals": registry.deterministic_totals(),
            "cache": {
                "hits": registry.counter_value("cache.hits"),
                "misses": registry.counter_value("cache.misses"),
                "evictions": registry.counter_value("cache.evictions"),
            },
            "health": self.health.summary(),
        }
        self.telemetry_summary = summary
        if self.checkpoint is not None:
            self.checkpoint.set_metadata({"telemetry": summary})
            self.checkpoint.flush()
        if isinstance(self.config, CampaignConfig) and self.corpus is not None:
            self.corpus.telemetry = summary
            if self.corpus.root is not None:
                metrics_path = telemetry_paths(self.corpus.root)[1]
                atomic_write_json(metrics_path, {
                    "version": 1,
                    "campaign": session.campaign,
                    "metrics": registry.to_json(),
                })
            # End of run: commit the remaining delta and write the
            # human-readable corpus.json summary next to the database.
            self.corpus.finalize()

    def _ingest_into_store(self) -> None:
        """Auto-ingest the finished campaign into the telemetry store.

        Fuzzing-only: marker campaigns persist their findings straight into
        the findings database (:meth:`_run_markers`) and keep no corpus
        directory for the telemetry store to read."""
        if self.db_path is None or self.corpus is None:
            return
        from repro.telemetry.store import TelemetryStore
        with TelemetryStore(self.db_path) as store:
            self.db_run_id = store.ingest_campaign(self.corpus.root)
        logger.info("campaign ingested into %s as run %s", self.db_path,
                    self.db_run_id)

    # -- marker mode ------------------------------------------------------------

    def _run_markers(self):
        """Shard a marker campaign over the executor and merge the result."""
        from repro.markers.engine import MarkerEngine
        from repro.reduction import marker_record_for, reduce_marker_finding

        engine = MarkerEngine(self.config)
        pending = list(range(self.config.num_seeds))
        self.monitor = ThroughputMonitor(self.config.num_seeds,
                                         emit=self.progress)
        self.monitor.start()
        self.health.start()

        def batches():
            fresh = iter(self.executor.map_seeds(self.config, pending))
            try:
                for batch in fresh:
                    self.monitor.observe(batch)
                    self.health.observe(batch.duration_seconds)
                    yield batch
            finally:
                if hasattr(fresh, "close"):
                    fresh.close()

        result = engine.collect(batches())
        if self.reduce:
            self.reductions = []
            for bucket in result.buckets.values():
                reduced, reduction = reduce_marker_finding(
                    bucket.representative, cache=engine.oracle.cache,
                    jobs=self.reduce_jobs)
                record = marker_record_for(reduced, reduction)
                bucket.representative = reduced
                self.reductions.append(record)
                if self.progress is not None:
                    self.progress(f"reduced {record.label}: "
                                  f"{record.original_tokens} -> "
                                  f"{record.reduced_tokens} tokens "
                                  f"({record.token_reduction:.0%})")
        if self.db_path is not None:
            # Marker findings persist into the findings database directly
            # (the corpus store is crash-specific); re-ingesting the same
            # campaign fingerprint and findings is idempotent.
            from repro.corpusdb import FindingsDB
            fingerprint = config_fingerprint(self.config)
            with FindingsDB(self.db_path) as db:
                campaign_id = db.ingest_marker_result(
                    f"markers-{fingerprint}", result,
                    fingerprint=fingerprint)
                # Buckets the known-bug patch database already attributes
                # were ledgered by the ingest; surface them in the summary.
                self.marker_suppressions = db.suppression_ledger(campaign_id)
            logger.info("marker findings ingested into %s", self.db_path)
        return result

    # -- internals --------------------------------------------------------------

    def _reduce_buckets(self, campaign: FuzzingCampaign,
                        result: CampaignResult) -> List[ReductionRecord]:
        """Shrink one representative FN candidate per dedup bucket.

        Candidates are visited in campaign order, so the representative of
        each (UB type, crash site, sanitizer) bucket — and with it the
        reduced reproducer — is identical for serial and parallel runs.
        The campaign's own differential tester (and compilation cache)
        evaluates candidates when ``reduce_jobs == 1``; pool workers build
        their own caches.  Buckets whose corpus record already carries a
        reduction (a resumed or session-batched campaign) are restored, not
        re-reduced — reduction is the dominant per-bucket cost.
        """
        records: List[ReductionRecord] = []
        seen: set = set()
        for candidate in result.fn_candidates:
            key: BucketKey = bucket_key_for(candidate)
            if key in seen:
                continue
            seen.add(key)
            restored = self._restored_reduction(key)
            if restored is not None:
                records.append(restored)
                continue
            reduced, reduction = reduce_fn_candidate(candidate,
                                                     tester=campaign.tester,
                                                     jobs=self.reduce_jobs)
            record = record_for(bucket_slug(key), candidate, reduction)
            records.append(record)
            if self.corpus is not None and key in self.corpus.buckets:
                self.corpus.record_reduction(key, reduction.reduced_source,
                                             stats=record.to_json())
            if self.progress is not None:
                self.progress(f"reduced {record.label}: "
                              f"{record.original_tokens} -> "
                              f"{record.reduced_tokens} tokens "
                              f"({record.token_reduction:.0%})")
        return records

    def _restored_reduction(self, key: BucketKey) -> Optional[ReductionRecord]:
        """Rebuild the record of an already-reduced bucket from the corpus."""
        if self.corpus is None:
            return None
        bucket = self.corpus.buckets.get(key)
        if bucket is None or not bucket.reduction:
            return None
        stats = bucket.reduction
        source = stats.get("source")
        if source is None and self.corpus.root is not None \
                and stats.get("path"):
            try:
                with open(os.path.join(self.corpus.root, stats["path"]),
                          encoding="utf-8") as handle:
                    source = handle.read()
            except OSError:
                return None
        try:
            return ReductionRecord(
                label=stats.get("label", bucket.slug),
                ub_type=bucket.ub_type, crash_site=bucket.crash_site,
                sanitizer=bucket.sanitizer,
                original_tokens=stats["original_tokens"],
                reduced_tokens=stats["reduced_tokens"],
                predicate_evaluations=stats["predicate_evaluations"],
                duration_seconds=stats["duration_seconds"],
                reduced_source=source if source is not None else "")
        except KeyError:
            return None

    def _merged_batches(self, completed: Dict[int, SeedBatch],
                        pending: list[int]) -> Iterator[SeedBatch]:
        """Yield batches in seed order, merging checkpointed and fresh ones."""
        fresh = iter(self.executor.map_seeds(self.config, pending,
                                             survey_skip=self._survey_skip))
        try:
            for index in range(self.config.num_seeds):
                if index in completed:
                    batch = completed[index]
                    # Restored work advances the campaign position but not
                    # the throughput/ETA figures — no work happened.
                    self.monitor.note_restored(batch)
                else:
                    try:
                        batch = next(fresh)
                    except StopIteration:
                        # Session cap reached: hand back a partial campaign;
                        # the checkpoint already holds everything computed.
                        return
                    if batch.seed_index != index:  # pragma: no cover - invariant
                        raise RuntimeError(
                            f"executor yielded seed {batch.seed_index}, "
                            f"expected {index}")
                    if self.checkpoint is not None:
                        self.checkpoint.record(batch)
                    self.monitor.observe(batch)
                    self.health.observe(batch.duration_seconds)
                    self.surveyed_cells += batch.surveyed_cells
                    self.skipped_cells += batch.skipped_cells
                if self.corpus is not None:
                    self.corpus.ingest(batch)
                yield batch
        finally:
            if hasattr(fresh, "close"):
                fresh.close()
            if self.checkpoint is not None:
                self.checkpoint.flush()
            if self.corpus is not None:
                self.corpus.flush()
