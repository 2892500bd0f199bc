"""Live throughput/ETA statistics for running campaigns.

The monitor observes completed seed batches and derives rolling rates
(seeds/sec, programs-tested/sec) and an ETA from the per-seed average.  It
is deliberately passive: the orchestrator feeds it batches and an optional
``emit`` callable (e.g. ``print``) receives one formatted line per seed, so
tests can capture progress without touching stdout.  A batch is a fuzzing
:class:`~repro.core.fuzzer.SeedBatch` or a marker
:class:`~repro.markers.engine.MarkerBatch`: the monitor reads its
``programs_tested`` and ``finding_count``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class ThroughputSnapshot:
    """One observation of campaign progress.

    ``seeds_done`` includes checkpoint-restored seeds (overall campaign
    position); the rate and ETA are computed from freshly executed work
    only, so resuming a mostly-done campaign doesn't report absurd
    throughput.
    """

    seeds_done: int
    seeds_total: int
    seeds_restored: int
    programs_tested: int
    findings: int
    elapsed_seconds: float
    programs_per_second: float
    eta_seconds: Optional[float]

    def format_line(self) -> str:
        eta = "--" if self.eta_seconds is None else f"{self.eta_seconds:6.1f}s"
        restored = (f" ({self.seeds_restored} restored)"
                    if self.seeds_restored else "")
        return (f"seeds {self.seeds_done}/{self.seeds_total}{restored} | "
                f"programs {self.programs_tested} "
                f"({self.programs_per_second:.2f}/s) | "
                f"findings {self.findings} | "
                f"elapsed {self.elapsed_seconds:6.1f}s | eta {eta}")


class ThroughputMonitor:
    """Tracks campaign progress and streams per-seed status lines."""

    def __init__(self, seeds_total: int,
                 emit: Optional[Callable[[str], None]] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.seeds_total = seeds_total
        self.emit = emit
        self._clock = clock
        self._start: Optional[float] = None
        #: When fresh work began: restore-replay time (checkpoint loading,
        #: corpus ingestion of already-computed batches) keeps pushing this
        #: forward until the first freshly-executed batch is observed, so
        #: rates and ETAs are computed from fresh work only.
        self._fresh_start: Optional[float] = None
        self.seeds_done = 0
        self.seeds_restored = 0
        self.programs_tested = 0
        self.programs_restored = 0
        self.findings = 0

    def start(self) -> None:
        self._start = self._clock()
        self._fresh_start = self._start

    def note_restored(self, batch) -> None:
        """Record a checkpoint-restored batch: campaign position advances,
        but nothing is emitted and rates/ETA ignore it (no work was done)."""
        self.seeds_restored += 1
        self.programs_restored += batch.programs_tested
        self.findings += batch.finding_count
        if self.seeds_done == 0:
            # Still replaying the checkpoint: the wall-clock consumed so far
            # is restore overhead, not execution, so fresh work starts now.
            self._fresh_start = self._clock()

    def observe(self, batch) -> ThroughputSnapshot:
        """Record one completed batch; returns (and optionally emits) a snapshot."""
        if self._start is None:
            self.start()
        self.seeds_done += 1
        self.programs_tested += batch.programs_tested
        self.findings += batch.finding_count
        snapshot = self.snapshot()
        if self.emit is not None:
            self.emit(snapshot.format_line())
        return snapshot

    def snapshot(self) -> ThroughputSnapshot:
        now = self._clock()
        elapsed = 0.0 if self._start is None else now - self._start
        # Rate and ETA come from freshly-executed work only: measuring them
        # against total elapsed (which includes replaying restored batches)
        # would under-report throughput and inflate the ETA after a resume.
        work_elapsed = 0.0 if self._fresh_start is None else now - self._fresh_start
        rate = self.programs_tested / work_elapsed if work_elapsed > 0 else 0.0
        position = self.seeds_restored + self.seeds_done
        eta: Optional[float] = None
        if self.seeds_done and self.seeds_total > position and work_elapsed > 0:
            per_seed = work_elapsed / self.seeds_done
            eta = per_seed * (self.seeds_total - position)
        return ThroughputSnapshot(seeds_done=position,
                                  seeds_total=self.seeds_total,
                                  seeds_restored=self.seeds_restored,
                                  programs_tested=self.programs_tested,
                                  findings=self.findings,
                                  elapsed_seconds=elapsed,
                                  programs_per_second=rate,
                                  eta_seconds=eta)
