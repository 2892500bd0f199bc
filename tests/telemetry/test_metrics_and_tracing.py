"""Unit tests for the telemetry primitives: metrics, spans, runtime state,
profile replay and logging configuration."""

from __future__ import annotations

import ast
import io
import json
import logging
from pathlib import Path

import pytest

from repro.analysis import table_stage_profile
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    TraceWriter,
    configure_logging,
    profile_from_events,
    read_trace,
)
from repro.telemetry import runtime as telemetry

# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


def test_counter_gauge_histogram_basics():
    registry = MetricsRegistry()
    registry.inc("cache.hits")
    registry.inc("cache.hits", 4)
    registry.observe("stage.execute.seconds", 0.003)
    registry.observe("stage.execute.seconds", 99.0)

    assert registry.counter_value("cache.hits") == 5
    assert registry.counter_value("never.touched") == 0
    histogram = registry.histogram("stage.execute.seconds")
    assert histogram.count == 2
    assert histogram.sum == pytest.approx(99.003)

    with pytest.raises(ValueError):
        registry.inc("cache.hits", -1)


def test_registry_json_roundtrip_and_merge():
    a = MetricsRegistry()
    a.inc("vm.runs", 3)
    a.observe("stage.frontend.seconds", 0.01)

    b = MetricsRegistry()
    b.inc("vm.runs", 5)
    b.inc("cache.misses")
    b.observe("stage.frontend.seconds", 0.5)

    merged = MetricsRegistry.from_json(a.to_json())
    merged.merge_json(b.to_json())

    assert merged.counter_value("vm.runs") == 8
    assert merged.counter_value("cache.misses") == 1
    histogram = merged.histogram("stage.frontend.seconds")
    assert histogram.count == 2
    assert histogram.sum == pytest.approx(0.51)
    # The payload is JSON-safe end to end.
    json.dumps(merged.to_json())
    # A metrics.json written before gauges were dropped still merges: keys
    # other than counters and histograms are ignored.
    merged.merge_json({"counters": {"vm.runs": 1},
                       "gauges": {"pool.workers": 4.0}})
    assert merged.counter_value("vm.runs") == 9
    assert set(merged.to_json()) == {"counters", "histograms"}


def test_merge_is_order_insensitive_on_deterministic_totals():
    payloads = []
    for index in range(3):
        registry = MetricsRegistry()
        registry.inc("cache.hits", index + 1)
        registry.observe("stage.optimize.seconds", 0.001 * (index + 1))
        payloads.append(registry.to_json())

    forward, backward = MetricsRegistry(), MetricsRegistry()
    for payload in payloads:
        forward.merge_json(payload)
    for payload in reversed(payloads):
        backward.merge_json(payload)

    totals = forward.deterministic_totals()
    assert totals == backward.deterministic_totals()
    assert totals == {"cache.hits": 6, "stage.optimize.seconds.count": 3}


# ---------------------------------------------------------------------------
# Tracer and TraceWriter
# ---------------------------------------------------------------------------


def _fake_clock(step=1.0):
    state = {"now": 0.0}

    def clock():
        state["now"] += step
        return state["now"]

    return clock


def test_span_nesting_ids_and_parents():
    tracer = Tracer(clock=_fake_clock())
    with tracer.span("campaign"):
        assert tracer.depth == 1
        with tracer.span("seed", seed=7):
            with tracer.span("optimize", opt="-O2"):
                pass
        with tracer.span("execute"):
            pass
    assert tracer.depth == 0

    by_name = {event["name"]: event for event in tracer.events}
    # Ids are consecutive in open order; children reference their parent.
    assert by_name["campaign"]["id"] == 1 and by_name["campaign"]["parent"] is None
    assert by_name["seed"]["parent"] == by_name["campaign"]["id"]
    assert by_name["optimize"]["parent"] == by_name["seed"]["id"]
    assert by_name["execute"]["parent"] == by_name["campaign"]["id"]
    assert by_name["seed"]["attrs"] == {"seed": 7}
    # Spans emit on close: children appear before their parents.
    names = [event["name"] for event in tracer.events]
    assert names.index("optimize") < names.index("seed") < names.index("campaign")
    assert all(event["dur"] > 0 for event in tracer.events)


def test_span_records_error_and_unwinds_stack():
    tracer = Tracer(clock=_fake_clock())
    with pytest.raises(RuntimeError):
        with tracer.span("oracle"):
            with tracer.span("execute"):
                raise RuntimeError("boom")
    assert tracer.depth == 0
    errors = {event["name"]: event.get("error") for event in tracer.events}
    assert errors == {"execute": "RuntimeError", "oracle": "RuntimeError"}


def test_trace_writer_roundtrip_and_pid_guard(tmp_path):
    path = str(tmp_path / "telemetry" / "trace.jsonl")
    writer = TraceWriter(path)
    tracer = Tracer(writer=writer, clock=_fake_clock())
    tracer.emit({"ev": "meta", "version": 1})
    with tracer.span("frontend"):
        pass

    # A forked child inheriting the writer must not interleave: simulate by
    # forging the recorded pid.
    writer._pid += 1
    tracer.emit({"ev": "span", "name": "from-a-child"})
    writer._pid -= 1
    writer.close()

    events = read_trace(path)
    assert [event["ev"] for event in events] == ["meta", "span"]
    assert events[1]["name"] == "frontend"
    assert tracer.events == []  # streamed, not buffered


# ---------------------------------------------------------------------------
# Runtime state: scopes, merge, fast paths
# ---------------------------------------------------------------------------


def test_disabled_fast_paths_are_inert():
    assert telemetry.current() is None
    assert telemetry.metrics() is None
    assert telemetry.tracer() is None
    assert telemetry.worker_flags() is None
    telemetry.inc("cache.hits")  # no-op, no error
    with telemetry.span("optimize") as span:
        assert span is None
    with telemetry.stage("frontend"):
        pass
    with telemetry.seed_scope(0) as scope:
        assert scope is None
    telemetry.merge_batch({"seed": 0, "metrics": {}})


def test_seed_scope_routes_metrics_and_merge_restores_totals():
    session = telemetry.enable(campaign="t-merge", tracing=True)
    telemetry.inc("parent.events")
    payloads = []
    for seed in range(2):
        with telemetry.seed_scope(seed) as scope:
            assert scope is not None
            telemetry.inc("cache.hits", seed + 1)
            with telemetry.span("test", seed=seed):
                pass
            # Scoped work never touches the session registry...
            assert session.metrics.counter_value("cache.hits") == 0
            # ...and scopes do not nest.
            with telemetry.seed_scope(99) as inner:
                assert inner is None
            payloads.append(scope.payload())

    # Payloads are JSON-safe (they cross the process boundary in batches).
    payloads = [json.loads(json.dumps(payload)) for payload in payloads]
    for payload in payloads:
        telemetry.merge_batch(payload)

    assert session.metrics.counter_value("cache.hits") == 3
    assert session.metrics.counter_value("parent.events") == 1
    replayed = [event for event in session.tracer.events
                if event.get("name") == "test"]
    assert [event["scope"] for event in replayed] == [0, 1]


def test_worker_flags_roundtrip():
    telemetry.enable(campaign="t-flags", tracing=True)
    flags = telemetry.worker_flags()
    assert flags == {"campaign": "t-flags", "tracing": True}

    # Worker side: reset inherited state, re-enable from the flags.
    telemetry.enable_from_flags(flags)
    session = telemetry.current()
    assert session.campaign == "t-flags"
    assert session.tracing and session.trace_writer is None

    telemetry.enable_from_flags(None)
    assert telemetry.current() is None


def test_stage_records_histogram_and_span():
    telemetry.enable(campaign="t-stage", tracing=True)
    with telemetry.stage("optimize", compiler="llvm", opt="-O2") as stage:
        stage.set("note", "x")
    session = telemetry.current()
    histogram = session.metrics.histogram("stage.optimize.seconds")
    assert histogram.count == 1
    (event,) = session.tracer.events
    assert event["name"] == "optimize"
    assert event["attrs"] == {"compiler": "llvm", "opt": "-O2", "note": "x"}


def test_stage_rejects_unregistered_names_when_enabled():
    # Disabled, the fast path returns before any check.
    with telemetry.stage("no-such-stage"):
        pass
    session = telemetry.enable(campaign="t-unregistered")
    with pytest.raises(ValueError, match="no-such-stage"):
        telemetry.stage("no-such-stage")
    for name in telemetry.STAGES:
        with telemetry.stage(name):
            pass
    assert session.metrics.histogram("stage.generate.seconds").count == 1
    assert session.metrics.histogram("stage.no-such-stage.seconds").count == 0


def _emitted_stage_names():
    """Every literal ``telemetry.stage("...")`` name under ``src/repro``."""
    root = Path(telemetry.__file__).resolve().parents[1]
    names = {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "stage"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "telemetry"
                    and node.args and isinstance(node.args[0], ast.Constant)):
                location = f"{path.relative_to(root)}:{node.lineno}"
                names.setdefault(node.args[0].value, []).append(location)
    return names


def test_every_emitted_stage_is_registered():
    """An unregistered stage is neither listed nor subtracted by the stage
    profile, so its time silently lands in its parent stage."""
    names = _emitted_stage_names()
    assert "execute" in names
    unregistered = {name: sites for name, sites in names.items()
                    if name not in telemetry.STAGES}
    assert unregistered == {}


# ---------------------------------------------------------------------------
# Profile replay and the stats table
# ---------------------------------------------------------------------------


def _synthetic_events():
    # One traced seed: an oracle span containing a frontend compile, plus a
    # parent-side campaign span.  Self time must subtract nested stages.
    return [
        {"ev": "meta", "version": 1, "campaign": "deadbeef"},
        {"ev": "span", "name": "frontend", "id": 2, "parent": 1, "t": 0.1,
         "dur": 0.25, "scope": 4},
        {"ev": "span", "name": "oracle", "id": 1, "parent": None, "t": 0.0,
         "dur": 1.0, "scope": 4},
        {"ev": "span", "name": "campaign", "id": 1, "parent": None, "t": 0.0,
         "dur": 2.0},
    ]


def test_profile_from_events_computes_self_time_per_scope():
    profile = profile_from_events(_synthetic_events())
    assert profile.campaign == "deadbeef"
    assert profile.seed_count == 1 and profile.span_count == 3
    assert profile.wall_seconds == 2.0
    oracle = profile.stage("oracle")
    assert oracle.calls == 1
    assert oracle.total_seconds == pytest.approx(1.0)
    assert oracle.self_seconds == pytest.approx(0.75)  # minus the frontend
    assert profile.stage("frontend").self_seconds == pytest.approx(0.25)
    assert profile.stage("reduce").calls == 0


def test_profile_metrics_only_fallback():
    registry = MetricsRegistry()
    registry.inc("cache.hits", 7)
    registry.observe("stage.execute.seconds", 0.2)
    registry.observe("stage.execute.seconds", 0.3)
    profile = profile_from_events([], metrics=registry)
    assert profile.span_count == 0
    execute = profile.stage("execute")
    assert execute.calls == 2
    assert execute.total_seconds == pytest.approx(0.5)
    assert profile.counters["cache.hits"] == 7


def test_table_stage_profile_shares_sum_to_one():
    profile = profile_from_events(_synthetic_events())
    headers, rows = table_stage_profile(profile)
    assert headers[0] == "Stage" and "Share" in headers
    assert [row[0] for row in rows] == list(telemetry.STAGES)
    shares = [float(row[-1].rstrip("%")) for row in rows]
    assert sum(shares) == pytest.approx(100.0, abs=0.5)


# ---------------------------------------------------------------------------
# Logging configuration
# ---------------------------------------------------------------------------


def test_configure_logging_levels_and_idempotence():
    stream = io.StringIO()
    root = configure_logging(1, stream=stream)
    try:
        assert root.level == logging.INFO
        # Reconfiguring swaps the handler instead of stacking a duplicate.
        configure_logging(2, stream=stream)
        assert logging.getLogger("repro").level == logging.DEBUG
        handlers = [h for h in root.handlers
                    if getattr(h, "_repro_telemetry", False)]
        assert len(handlers) == 1
        logging.getLogger("repro.test").debug("visible at -vv")
        assert "visible at -vv" in stream.getvalue()
        assert configure_logging(0, stream=stream).level == logging.WARNING
        assert configure_logging(99, stream=stream).level == logging.DEBUG
    finally:
        for handler in [h for h in root.handlers
                        if getattr(h, "_repro_telemetry", False)]:
            root.removeHandler(handler)


def test_configure_logging_twice_emits_each_message_once():
    """Regression: repeated CLI invocations in one process must not stack
    stream handlers — a second call used to double every log line."""
    stream = io.StringIO()
    root = configure_logging(1, stream=stream)
    try:
        configure_logging(1, stream=stream)
        handlers = [h for h in root.handlers
                    if getattr(h, "_repro_telemetry", False)]
        assert len(handlers) == 1
        logging.getLogger("repro.test").info("logged once")
        assert stream.getvalue().count("logged once") == 1
    finally:
        for handler in [h for h in root.handlers
                        if getattr(h, "_repro_telemetry", False)]:
            root.removeHandler(handler)


def test_configure_logging_collapses_stray_duplicate_handlers():
    """Handlers installed before the idempotence guarantee (or by buggy
    embedders) collapse to one on the next configure call."""
    stream = io.StringIO()
    root = logging.getLogger("repro")
    strays = []
    for _ in range(3):
        handler = logging.StreamHandler(stream)
        handler._repro_telemetry = True
        root.addHandler(handler)
        strays.append(handler)
    try:
        configure_logging(1, stream=stream)
        handlers = [h for h in root.handlers
                    if getattr(h, "_repro_telemetry", False)]
        assert len(handlers) == 1
        assert handlers[0] is strays[0]  # reused in place, extras closed
        logging.getLogger("repro.test").info("deduplicated")
        assert stream.getvalue().count("deduplicated") == 1
    finally:
        for handler in [h for h in root.handlers
                        if getattr(h, "_repro_telemetry", False)]:
            root.removeHandler(handler)
