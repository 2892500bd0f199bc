"""Live campaign health: stall detection and non-intrusive trace following.

Two consumers share this module:

* the **orchestrator** feeds a :class:`HealthMonitor` every freshly
  executed batch.  The monitor keeps a rolling median of per-seed wall
  times; a gap between batches longer than :func:`stall_threshold` of
  those times is flagged as a stall (one WARN log per incident) and the
  final summary — status, stall count, worst gap — lands under ``health``
  in the campaign's ``telemetry/metrics.json`` (and its telemetry summary);
* the **watch subcommand** (``python -m repro.orchestrator watch <dir>``)
  attaches a :class:`TraceFollower` to a *running* campaign's
  ``telemetry/trace.jsonl``.  The follower tails the file read-only
  (complete lines only, partial tail retained for the next poll), so it can
  never disturb the writer, and feeds a :class:`WatchView` that renders
  throughput, ETA and the per-stage self-time breakdown from whatever spans
  have been flushed so far, and calls the trace stalled by the same
  :func:`stall_threshold`.
"""

from __future__ import annotations

import json
import logging
import os
import statistics
import time
from typing import Callable, List, Optional

from repro.telemetry.profile import profile_from_events, telemetry_paths

logger = logging.getLogger(__name__)

#: A batch gap this many times the rolling per-seed median flags a stall.
STALL_FACTOR = 5.0
#: Gaps under this many seconds never flag, whatever the median says —
#: sub-second seeds would otherwise make normal scheduling jitter "stalls".
MIN_STALL_SECONDS = 2.0
#: The rolling median covers this many of the latest seed durations.
STALL_WINDOW = 16


def stall_threshold(seed_durations: List[float]) -> Optional[float]:
    """Seconds without progress that count as a stall, given the seed
    durations so far: ``max(MIN_STALL_SECONDS, STALL_FACTOR × median)`` of
    the latest :data:`STALL_WINDOW`, or None before the first seed."""
    if not seed_durations:
        return None
    median = statistics.median(seed_durations[-STALL_WINDOW:])
    return max(MIN_STALL_SECONDS, STALL_FACTOR * median)


class HealthMonitor:
    """Rolling stall/straggler detector over per-seed batch completions.

    ``observe(duration)`` records one freshly executed seed batch; the gap
    since the previous observation is compared against
    :func:`stall_threshold` of the durations seen so far.  The first
    flagged gap of an incident logs a WARN; :meth:`summary` reports the
    campaign's final health for ``metrics.json``.  ``clock`` is the time
    source (tests substitute a fake one).
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._durations: List[float] = []
        self._last_progress: Optional[float] = None
        self.batches = 0
        self.stalls = 0
        self.worst_gap_seconds = 0.0

    def start(self) -> None:
        self._last_progress = self._clock()

    @property
    def median_seed_seconds(self) -> Optional[float]:
        """Rolling median duration of the last :data:`STALL_WINDOW` seed
        batches."""
        if not self._durations:
            return None
        return statistics.median(self._durations)

    def threshold_seconds(self) -> Optional[float]:
        """The current stall threshold, or None before any observation."""
        return stall_threshold(self._durations)

    def observe(self, duration_seconds: float) -> None:
        """Record one freshly executed batch (its per-seed wall time)."""
        now = self._clock()
        self._check_gap(now)
        self._last_progress = now
        self.batches += 1
        self._durations.append(max(0.0, duration_seconds))
        if len(self._durations) > STALL_WINDOW:
            del self._durations[0]

    def _check_gap(self, now: float) -> None:
        threshold = self.threshold_seconds()
        if threshold is None or self._last_progress is None:
            return
        gap = now - self._last_progress
        self.worst_gap_seconds = max(self.worst_gap_seconds, gap)
        if gap > threshold:
            self.stalls += 1
            logger.warning(
                "campaign stall: no batch progress for %.1fs "
                "(threshold %.1fs = %.1fx rolling median %.2fs)",
                gap, threshold, STALL_FACTOR,
                self.median_seed_seconds or 0.0)

    def summary(self) -> dict:
        """The ``health`` record persisted in ``metrics.json``."""
        median = self.median_seed_seconds
        return {
            "status": "stalled" if self.stalls else "ok",
            "batches": self.batches,
            "stalls": self.stalls,
            "worst_gap_seconds": round(self.worst_gap_seconds, 3),
            "median_seed_seconds": (round(median, 3)
                                    if median is not None else None),
            "stall_factor": STALL_FACTOR,
        }


class TraceFollower:
    """Incrementally reads a growing ``trace.jsonl`` without disturbing it.

    Each :meth:`poll` opens the file read-only, seeks to the last consumed
    offset and parses only *complete* lines (a partially written last line
    stays buffered until the writer finishes it), appending the new events
    to :attr:`events`.  Missing file → no events yet (the campaign may not
    have started tracing).
    """

    def __init__(self, trace_path: str) -> None:
        self.trace_path = trace_path
        self.events: List[dict] = []
        self._offset = 0
        self._tail = b""

    def poll(self) -> int:
        """Consume newly flushed events; returns how many were added."""
        try:
            with open(self.trace_path, "rb") as handle:
                handle.seek(self._offset)
                chunk = handle.read()
        except OSError:
            return 0
        if not chunk:
            return 0
        self._offset += len(chunk)
        data = self._tail + chunk
        lines = data.split(b"\n")
        self._tail = lines.pop()  # incomplete (or empty) final fragment
        added = 0
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                self.events.append(json.loads(line.decode("utf-8")))
                added += 1
            except (json.JSONDecodeError, UnicodeDecodeError):
                logger.debug("skipping malformed trace line: %r", line[:80])
        return added

    def last_event_age(self) -> Optional[float]:
        """Seconds since the trace file last grew (None if it never existed)."""
        try:
            return max(0.0, time.time() - os.path.getmtime(self.trace_path))
        except OSError:
            return None


class WatchView:
    """Renders live campaign progress from a followed trace.

    The view is pure over ``follower.events`` plus wall-clock staleness:
    seeds done and per-stage self time come from the flushed spans, totals
    from the ``campaign_start`` meta event the orchestrator emits, and
    health from how long ago the trace last grew versus the rolling median
    seed duration (:func:`stall_threshold`, as :class:`HealthMonitor`).
    """

    def __init__(self, campaign_dir: str) -> None:
        self.campaign_dir = campaign_dir
        self.follower = TraceFollower(telemetry_paths(campaign_dir)[0])

    def refresh(self) -> int:
        return self.follower.poll()

    @property
    def started(self) -> bool:
        return bool(self.follower.events)

    @property
    def finished(self) -> bool:
        """True once the top-level campaign span has closed."""
        return any(event.get("ev") == "span"
                   and event.get("name") == "campaign"
                   and event.get("scope") is None
                   for event in self.follower.events)

    def snapshot(self) -> dict:
        """One render-ready progress snapshot from the events so far."""
        events = self.follower.events
        start_meta = next((event for event in events
                           if event.get("ev") == "campaign_start"), None)
        seeds_total = start_meta.get("seeds") if start_meta else None
        workers = start_meta.get("workers") if start_meta else None
        started_at = start_meta.get("time") if start_meta else None
        seed_durations = [event.get("dur", 0.0) for event in events
                          if event.get("ev") == "span"
                          and event.get("name") == "seed"]
        profile = profile_from_events(events)
        elapsed = (max(0.0, time.time() - started_at)
                   if started_at is not None else None)
        seeds_done = len(seed_durations)
        rate = (seeds_done / elapsed if elapsed and seeds_done else None)
        eta = None
        if (rate and seeds_total is not None and seeds_total > seeds_done):
            eta = (seeds_total - seeds_done) / rate
        return {
            "campaign": profile.campaign,
            "seeds_done": seeds_done,
            "seeds_total": seeds_total,
            "workers": workers,
            "spans": profile.span_count,
            "elapsed_seconds": elapsed,
            "seeds_per_second": rate,
            "eta_seconds": eta,
            "stages": [(stage.name, stage.calls, stage.self_seconds)
                       for stage in profile.stages if stage.calls],
            "health": self._health(seed_durations),
            "finished": self.finished,
        }

    def _health(self, seed_durations: List[float]) -> dict:
        age = self.follower.last_event_age()
        if age is None:
            return {"status": "waiting", "last_event_age_seconds": None}
        threshold = stall_threshold(seed_durations)
        status = "ok"
        if self.finished:
            status = "finished"
        elif threshold is not None and age > threshold:
            status = "stalled"
        return {"status": status,
                "last_event_age_seconds": round(age, 3),
                "threshold_seconds": (round(threshold, 3)
                                      if threshold is not None else None)}

    def format_lines(self) -> List[str]:
        """The human rendering of :meth:`snapshot` (one update block)."""
        snap = self.snapshot()
        lines: List[str] = []
        total = ("?" if snap["seeds_total"] is None
                 else str(snap["seeds_total"]))
        rate = (f"{snap['seeds_per_second']:.2f} seeds/s"
                if snap["seeds_per_second"] else "-- seeds/s")
        eta = (f"eta {snap['eta_seconds']:.0f}s"
               if snap["eta_seconds"] is not None else "eta --")
        lines.append(f"seeds {snap['seeds_done']}/{total} | {rate} | {eta} "
                     f"| {snap['spans']} spans")
        if snap["stages"]:
            total_self = sum(self_s for _, _, self_s in snap["stages"]) or 1.0
            breakdown = "  ".join(
                f"{name} {100 * self_s / total_self:.0f}%"
                for name, _, self_s in snap["stages"])
            lines.append(f"stage self-time: {breakdown}")
        health = snap["health"]
        age = health["last_event_age_seconds"]
        detail = f"last event {age:.1f}s ago" if age is not None \
            else "no trace yet"
        lines.append(f"health: {health['status']} ({detail})")
        return lines
