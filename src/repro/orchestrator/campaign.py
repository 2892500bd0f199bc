"""The campaign orchestrator: one campaign per process, checkpoint/resume.

:class:`OrchestratedCampaign` runs a :class:`~repro.core.fuzzer.FuzzingCampaign`
(or a :class:`~repro.markers.engine.MarkerEngine`) with the production
machinery the bare campaign loop lacks:

* **one campaign per process** — :meth:`OrchestratedCampaign.run` builds
  the single campaign object, and its seeds, merge, triage and reduction
  all run on it and share its compilation cache.  With ``workers > 1`` the
  seeds run on a ``fork`` pool whose workers inherit that object; per-seed
  RNG derivation makes the merged result bit-identical to a serial run;
* **checkpoint/resume** — completed seeds are snapshotted to JSON after every
  batch, so a killed campaign resumes from where it stopped and finishes with
  the same deduplicated bug reports as an uninterrupted one;
* **corpus store + crash dedup** — every tested program and every FN-bug
  candidate is recorded, bucketed by (UB type, crash site, sanitizer).  A
  fresh seed is committed to the findings database *before* the checkpoint
  records it, and a resumed campaign rebuilds the corpus view by replaying
  its restored seeds, so killed-and-resumed equals uninterrupted;
* **crash reduction** — with ``reduce=True`` each dedup bucket's
  representative program is shrunk to a minimal reproducer after the merge
  (in this process, through the campaign's own differential tester),
  stored in the findings database and exported as ``reduced/<bucket>.c``;
  resumed campaigns restore the reductions they already recorded instead
  of re-reducing them;
* **live stats** — throughput and ETA stream through a
  :class:`~repro.orchestrator.stats.ThroughputMonitor`.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.core.fuzzer import (
    CampaignConfig,
    CampaignResult,
    FuzzingCampaign,
    SeedBatch,
)
from repro.corpusdb import CRASH_KIND
from repro.markers.engine import MarkerEngine
from repro.orchestrator.checkpoint import CampaignCheckpoint
from repro.orchestrator.corpus import (
    BucketKey,
    CorpusStore,
    bucket_key_for,
    bucket_slug,
    signature_for,
)
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

    ``workers=1`` (the default) runs every seed in this process;
    ``workers=N`` runs them on a pool of N forked processes that inherit
    the campaign object (``workers > 1`` needs the ``fork`` start method).
    Either way the deduplicated bug reports are identical for the same
    config and ``rng_seed``.

    Passing a :class:`~repro.markers.engine.MarkerCampaignConfig` selects
    **marker mode** (the CLI's ``--mode markers``): the same pool runs the
    marked-program surveys, the same monitor streams progress, and
    ``reduce=True`` shrinks one representative finding per dedup bucket via
    :func:`repro.reduction.reduce_marker_finding`.  Checkpoint/corpus
    storage, the trace it holds and the session cap are fuzzing-specific
    and rejected in marker mode.

    ``db_path`` names the findings database and nothing else: a fuzzing
    campaign hands it to its corpus store (so it needs ``corpus=<dir>``),
    and a marker campaign ingests its finding buckets into it.  Every run
    watches its fresh batches with its own
    :class:`~repro.telemetry.monitor.HealthMonitor`, whose summary lands in
    ``telemetry_summary`` and ``metrics.json``.
    """

    def __init__(self, config: Optional[CampaignConfig] = None,
                 workers: int = 1,
                 checkpoint_path: Optional[str] = None,
                 corpus: Union[CorpusStore, str, None] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 max_seeds_per_session: Optional[int] = None,
                 reduce: bool = False,
                 trace: bool = False,
                 db_path: Optional[str] = None) -> None:
        self.config = config if config is not None else CampaignConfig()
        if not isinstance(self.config, CampaignConfig):
            if checkpoint_path is not None or corpus is not None:
                raise ValueError(
                    "checkpoint_path (--checkpoint) and corpus (--corpus) "
                    "storage is only supported for fuzzing campaigns, not "
                    "marker campaigns")
            if max_seeds_per_session is not None:
                raise ValueError(
                    "max_seeds_per_session (--max-seeds-per-session) "
                    "requires checkpoint/resume, which marker campaigns do "
                    "not support — a capped run would silently return a "
                    "partial result")
            if trace:
                raise ValueError(
                    "trace=True (--trace) writes its spans into "
                    "corpus=<dir> (--corpus) storage, which marker "
                    "campaigns do not support")
        if workers > 1 and "fork" not in multiprocessing.get_all_start_methods():
            raise ValueError(
                "workers > 1 runs seeds on a 'fork' process pool, and this "
                "platform has no 'fork' start method; use workers=1")
        #: Seed processes: 1 runs every seed in this process.
        self.workers = max(1, workers)
        self.checkpoint = (CampaignCheckpoint(checkpoint_path, self.config)
                           if checkpoint_path is not None else None)
        if isinstance(corpus, (str, bytes)):
            # A shared --db file holds the findings tables, so two
            # campaigns over different corpus dirs dedupe against each
            # other; without one the store keeps a per-corpus database.
            corpus = CorpusStore(root=corpus, db_path=db_path)
        self.corpus = corpus
        self.progress = progress
        self.max_seeds_per_session = max_seeds_per_session
        self.reduce = reduce
        self.trace = trace
        if trace and (self.corpus is None or self.corpus.root is None):
            raise ValueError(
                "trace=True (--trace) requires corpus=<dir> (--corpus) to "
                "hold telemetry/trace.jsonl")
        self.db_path = db_path
        if db_path is not None and isinstance(self.config, CampaignConfig):
            if self.corpus is None or self.corpus.root is None:
                raise ValueError(
                    "db_path (--db) requires corpus=<dir> (--corpus): a "
                    "fuzzing campaign writes its findings database through "
                    "the corpus store, so without one db_path would be "
                    "ignored")
            if os.path.abspath(self.corpus.db_path) != os.path.abspath(db_path):
                raise ValueError(
                    f"db_path {db_path!r} (--db) is not the corpus store's "
                    f"findings database {self.corpus.db_path!r}, so it "
                    f"would be ignored; open the CorpusStore with db_path= "
                    f"instead")
        #: Populated by run(); exposes live throughput/ETA while running.
        self.monitor: Optional[ThroughputMonitor] = None
        #: Stall/straggler detection over freshly executed batches; the
        #: summary lands in ``telemetry_summary`` and ``metrics.json``.
        self.health = HealthMonitor()
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
        open) instead.

        The config's type picks the one campaign object this process
        builds; every seed, the merge, triage and reduction run on it."""
        session, owned = self._begin_telemetry()
        try:
            self._emit_campaign_start()
            with telemetry.span("campaign", workers=self.workers,
                                seeds=self.config.num_seeds):
                if isinstance(self.config, CampaignConfig):
                    result = self._run_fuzzing(FuzzingCampaign(self.config))
                else:
                    result = self._run_markers(MarkerEngine(self.config))
            self._finish_telemetry(session)
            return result
        finally:
            if owned:
                telemetry.disable()

    def _run_fuzzing(self, campaign: FuzzingCampaign) -> CampaignResult:
        completed: Dict[int, SeedBatch] = (self.checkpoint.load()
                                           if self.checkpoint is not None else {})
        self.resumed_indices = sorted(completed)
        pending = [index for index in range(self.config.num_seeds)
                   if index not in completed]
        if self.max_seeds_per_session is not None:
            pending = pending[:self.max_seeds_per_session]
        logger.info("campaign start: %d seeds (%d restored), %d workers",
                    self.config.num_seeds, len(completed), self.workers)
        result = campaign.collect(
            self._merged_batches(campaign, completed, pending))
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
                     "workers": self.workers, "time": time.time()})

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
        """Summarize merged metrics; persist them next to the corpus."""
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
        # Marker campaigns never have a corpus (rejected at construction).
        if self.corpus is not None and self.corpus.root is not None:
            atomic_write_json(telemetry_paths(self.corpus.root)[1], {
                "version": 1,
                "campaign": session.campaign,
                "metrics": registry.to_json(),
                "health": summary["health"],
            })

    # -- marker mode ------------------------------------------------------------

    def _run_markers(self, engine: MarkerEngine):
        """Run a marker campaign on *engine* and merge the result."""
        from repro.reduction import marker_record_for, reduce_marker_finding

        result = engine.collect(self._merged_batches(
            engine, {}, list(range(self.config.num_seeds))))
        if self.reduce:
            self.reductions = []
            for bucket in result.buckets.values():
                # The engine's own oracle: its cache and step budget.
                reduced, reduction = reduce_marker_finding(
                    bucket.representative, oracle=engine.oracle)
                record = marker_record_for(reduced, reduction)
                bucket.representative = reduced
                self.reductions.append(record)
                self._note_reduction(record)
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
        The campaign's own differential tester (its defect registry, step
        budget and compilation cache) evaluates the candidates in this
        process.  Buckets this campaign already reduced in an earlier
        session are restored from the findings database, not re-reduced —
        reduction is the dominant per-bucket cost.
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
                                                     tester=campaign.tester)
            record = record_for(bucket_slug(key), candidate, reduction)
            records.append(record)
            if self.corpus is not None and key in self.corpus.buckets:
                self.corpus.record_reduction(key, reduction.reduced_source,
                                             stats=record.to_json())
            self._note_reduction(record)
        return records

    def _note_reduction(self, record: ReductionRecord) -> None:
        if self.progress is not None:
            self.progress(f"reduced {record.label}: "
                          f"{record.original_tokens} -> "
                          f"{record.reduced_tokens} tokens "
                          f"({record.token_reduction:.0%})")

    def _restored_reduction(self, key: BucketKey) -> Optional[ReductionRecord]:
        """Rebuild the record of a bucket this campaign already reduced.

        A reduction another campaign recorded in a shared database is not
        restored: this campaign reduces its own representative."""
        if self.corpus is None:
            return None
        stored = self.corpus.db.reduction_for(CRASH_KIND, signature_for(key))
        if stored is None or stored["campaign_id"] != self.corpus.campaign_id:
            return None
        stats = stored["stats"]
        try:
            return ReductionRecord(
                label=stats.get("label", bucket_slug(key)),
                ub_type=key[0], crash_site=key[1], sanitizer=key[2],
                original_tokens=stats["original_tokens"],
                reduced_tokens=stats["reduced_tokens"],
                predicate_evaluations=stats["predicate_evaluations"],
                duration_seconds=stats["duration_seconds"],
                reduced_source=stored["source"])
        except KeyError:
            return None

    def _merged_batches(self, campaign, completed: Dict[int, SeedBatch],
                        pending: list[int]) -> Iterator[SeedBatch]:
        """Yield batches in seed order, merging checkpointed and fresh ones.

        Fresh batches come from running *pending* on *campaign*; both
        campaign modes read them here, which feeds the throughput and
        health monitors (marker campaigns restore nothing and persist
        nothing)."""
        self.monitor = ThroughputMonitor(self.config.num_seeds,
                                         emit=self.progress)
        self.monitor.start()
        self.health.start()
        fresh = _run_seeds(campaign, pending, self.workers)
        try:
            for index in range(self.config.num_seeds):
                if index in completed:
                    batch = completed[index]
                    # Restored work advances the campaign position but not
                    # the throughput/ETA figures — no work happened.
                    self.monitor.note_restored(batch)
                    if self.corpus is not None:
                        # Replay rebuilds the corpus view; a seed the
                        # database already holds queues no rows.
                        self.corpus.ingest(batch)
                else:
                    batch = next(fresh, None)
                    if batch is None:
                        # Session cap reached: hand back a partial campaign;
                        # the checkpoint already holds everything computed.
                        return
                    if batch.seed_index != index:  # pragma: no cover - invariant
                        raise RuntimeError(
                            f"seed pool yielded seed {batch.seed_index}, "
                            f"expected {index}")
                    if self.corpus is not None:
                        # Database before checkpoint: every seed the
                        # checkpoint calls done is already committed.
                        self.corpus.ingest(batch)
                        self.corpus.flush()
                    if self.checkpoint is not None:
                        self.checkpoint.record(batch)
                    self.monitor.observe(batch)
                    self.health.observe(batch.duration_seconds)
                yield batch
        finally:
            fresh.close()
            if self.corpus is not None:
                self.corpus.flush()


# -- the seed pool ----------------------------------------------------------------

def _run_seeds(campaign, seed_indices: List[int],
               workers: int) -> Iterator:
    """Yield ``campaign.run_seed(index)`` for each of *seed_indices*, in order.

    With ``workers <= 1`` the seeds run in this process.  Otherwise they
    run on a ``fork`` pool: every worker inherits *campaign* as it stands
    (its defect registry and step budget included), so only the
    seed index goes out per task and only the batch comes back.  ``imap``
    with ``chunksize=1`` hands seeds to workers as they free up but yields
    them in seed order, which keeps the merge deterministic.
    """
    if workers <= 1 or not seed_indices:
        for index in seed_indices:
            yield campaign.run_seed(index)
        return
    # fork hands the initializer's arguments to the child unpickled.
    pool = multiprocessing.get_context("fork").Pool(
        processes=min(workers, len(seed_indices)),
        initializer=_initialize_worker,
        initargs=(campaign.run_seed, telemetry.worker_flags()))
    try:
        yield from pool.imap(_run_seed_in_worker, seed_indices, chunksize=1)
    finally:
        # terminate() rather than close(): when the consumer stops early
        # (max_programs_total reached, session cap), pending seeds are
        # abandoned, not drained.
        pool.terminate()
        pool.join()


#: The inherited campaign's bound ``run_seed``, set in each pool worker.
_worker_run_seed: Optional[Callable] = None


def _initialize_worker(run_seed: Callable,
                       telemetry_flags: Optional[dict]) -> None:
    """Pool initializer: keep *run_seed*, re-enable telemetry from flags.

    Telemetry state inherited across ``fork`` is dropped first: a worker
    never writes to the parent's trace file; its spans buffer in per-seed
    scopes and travel back inside the batch payloads."""
    global _worker_run_seed
    telemetry.enable_from_flags(telemetry_flags)
    _worker_run_seed = run_seed


def _run_seed_in_worker(seed_index: int):
    """Pool task: run one seed on the inherited campaign."""
    return _worker_run_seed(seed_index)
