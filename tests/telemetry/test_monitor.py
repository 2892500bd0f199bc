"""Health monitoring: stall detection under a fake clock, non-intrusive
trace following (partial lines, incremental polls), and the watch view."""

from __future__ import annotations

import json
import logging
import os

import pytest

from repro.telemetry.monitor import (MIN_STALL_SECONDS, STALL_FACTOR,
                                     STALL_WINDOW, HealthMonitor,
                                     TraceFollower, WatchView)
from repro.telemetry.profile import telemetry_paths


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


def test_monitor_steady_progress_is_ok():
    clock = FakeClock()
    monitor = HealthMonitor(clock=clock)
    monitor.start()
    for _ in range(8):
        clock.advance(1.0)
        monitor.observe(1.0)
    summary = monitor.summary()
    assert summary["status"] == "ok"
    assert summary["batches"] == 8 and summary["stalls"] == 0
    assert summary["median_seed_seconds"] == 1.0
    assert summary["stall_factor"] == STALL_FACTOR


def test_monitor_flags_stall_and_logs_once(caplog):
    clock = FakeClock()
    monitor = HealthMonitor(clock=clock)
    monitor.start()
    for _ in range(4):
        clock.advance(1.0)
        monitor.observe(1.0)
    # Gap of 20s > max(2, 5 * 1.0) = 5s: the next observation records the
    # incident with a single WARN.
    clock.advance(20.0)
    with caplog.at_level(logging.WARNING, logger="repro.telemetry.monitor"):
        monitor.observe(1.0)
    warnings = [r for r in caplog.records if "stall" in r.getMessage()]
    assert len(warnings) == 1
    summary = monitor.summary()
    assert summary["status"] == "stalled"
    assert summary["stalls"] == 1
    assert summary["worst_gap_seconds"] == 20.0


def test_monitor_min_stall_floor_tolerates_fast_seeds():
    clock = FakeClock()
    monitor = HealthMonitor(clock=clock)
    monitor.start()
    for _ in range(4):
        clock.advance(0.01)
        monitor.observe(0.01)
    # 5 × 0.01s median = 0.05s, but the 2s floor keeps jitter quiet.
    assert monitor.threshold_seconds() == MIN_STALL_SECONDS
    clock.advance(1.5)
    monitor.observe(0.01)
    assert monitor.summary()["stalls"] == 0


def test_monitor_rolling_window_drops_old_durations():
    clock = FakeClock()
    monitor = HealthMonitor(clock=clock)
    monitor.start()
    for duration in [100.0] * STALL_WINDOW + [1.0] * STALL_WINDOW:
        clock.advance(0.1)
        monitor.observe(duration)
    assert monitor.median_seed_seconds == 1.0
    assert monitor.threshold_seconds() == max(MIN_STALL_SECONDS,
                                              STALL_FACTOR * 1.0)


def test_follower_reads_incrementally_and_buffers_partial_lines(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    follower = TraceFollower(path)
    assert follower.poll() == 0  # missing file: not an error
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"ev":"meta","version":1}\n')
        handle.write('{"ev":"span","name":"a","id":1,')  # partial line
        handle.flush()
        assert follower.poll() == 1
        assert follower.events[0]["ev"] == "meta"
        handle.write('"parent":null,"t":0.1,"dur":0.2}\n')
        handle.flush()
    assert follower.poll() == 1
    assert follower.events[1]["name"] == "a"
    assert follower.poll() == 0  # nothing new


def test_follower_skips_malformed_lines(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("not json\n")
        handle.write('{"ev":"meta","version":1}\n')
    follower = TraceFollower(path)
    assert follower.poll() == 1
    assert follower.events == [{"ev": "meta", "version": 1}]


def _write_trace(campaign_dir: str, events) -> str:
    trace_path = telemetry_paths(campaign_dir)[0]
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")
    return trace_path


def test_watch_view_snapshot_midway(tmp_path):
    import time
    root = str(tmp_path)
    _write_trace(root, [
        {"ev": "meta", "version": 1, "campaign": "abc"},
        {"ev": "campaign_start", "seeds": 4, "workers": 2,
         "time": time.time() - 10.0},
        {"ev": "span", "name": "generate", "id": 1, "parent": 2,
         "t": 0.0, "dur": 0.5, "scope": 0},
        {"ev": "span", "name": "seed", "id": 2, "parent": None,
         "t": 0.0, "dur": 1.0, "scope": 0},
        {"ev": "span", "name": "seed", "id": 1, "parent": None,
         "t": 0.0, "dur": 1.0, "scope": 1},
    ])
    view = WatchView(root)
    assert view.refresh() == 5
    assert view.started and not view.finished
    snap = view.snapshot()
    assert snap["campaign"] == "abc"
    assert snap["seeds_done"] == 2 and snap["seeds_total"] == 4
    assert snap["workers"] == 2
    assert snap["seeds_per_second"] == pytest.approx(0.2, rel=0.5)
    assert snap["eta_seconds"] is not None
    assert snap["health"]["status"] == "ok"  # file just written
    assert any(name == "generate" for name, _, _ in snap["stages"])
    lines = view.format_lines()
    assert "seeds 2/4" in lines[0]
    assert any("generate" in line for line in lines)


def test_watch_view_finished_and_stalled(tmp_path):
    root = str(tmp_path)
    trace_path = _write_trace(root, [
        {"ev": "meta", "version": 1, "campaign": "abc"},
        {"ev": "span", "name": "seed", "id": 1, "parent": None,
         "t": 0.0, "dur": 0.1, "scope": 0},
    ])
    view = WatchView(root)
    view.refresh()
    # Make the trace file look an hour old: stalled (0.1s median → 2s floor).
    os.utime(trace_path, (0, 0))
    assert view.snapshot()["health"]["status"] == "stalled"
    # A closed campaign span flips the view to finished.
    with open(trace_path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"ev": "span", "name": "campaign", "id": 9,
                                 "parent": None, "t": 0.0, "dur": 2.0}) + "\n")
    view.refresh()
    assert view.finished
    assert view.snapshot()["health"]["status"] == "finished"


def test_watch_view_and_monitor_share_the_stall_threshold(tmp_path):
    """The watch view judges a trace's seeds by the monitor's rule: the
    same threshold over the same durations, window included."""
    durations = [10.0] * STALL_WINDOW + [1.0] * STALL_WINDOW
    root = str(tmp_path)
    _write_trace(root, [{"ev": "meta", "version": 1, "campaign": "abc"}] + [
        {"ev": "span", "name": "seed", "id": index, "parent": None,
         "t": float(index), "dur": duration, "scope": 0}
        for index, duration in enumerate(durations)])
    view = WatchView(root)
    view.refresh()
    clock = FakeClock()
    monitor = HealthMonitor(clock=clock)
    monitor.start()
    for duration in durations:
        clock.advance(duration)
        monitor.observe(duration)
    assert monitor.threshold_seconds() == STALL_FACTOR * 1.0
    assert view.snapshot()["health"]["threshold_seconds"] == \
        monitor.threshold_seconds()


def test_watch_view_empty_dir_is_waiting(tmp_path):
    view = WatchView(str(tmp_path))
    view.refresh()
    assert not view.started and not view.finished
    snap = view.snapshot()
    assert snap["health"]["status"] == "waiting"
    assert "no trace yet" in view.format_lines()[-1]
