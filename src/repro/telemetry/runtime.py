"""Process-wide telemetry state and the nullable fast path.

All instrumentation in the pipeline goes through this module, and all of it
follows one rule: when telemetry is disabled (the default), every hook is a
single module-global ``is None`` check — no objects allocated, no clock
reads, nothing per AST node.  That is what keeps the disabled-path overhead
within the ≤2% budget on the differential hot path.

The state machine:

* :func:`enable` installs a :class:`TelemetrySession` (metrics always;
  span tracing optionally, with an optional ``trace.jsonl`` writer).
* In the **parent**, work outside any seed records straight into the
  session's registry/tracer (triage, bucket reduction, campaign spans).
* Per-seed work runs inside :func:`seed_scope`, which swaps in a fresh
  registry (and, when tracing, a fresh buffering tracer) so the batch can
  carry its telemetry as a JSON payload across the process boundary.
* **Workers** never see the parent's session: the pool initializer calls
  :func:`reset_inherited` and re-enables from :func:`worker_flags`, so a
  forked worker gets its own state and never touches the parent's trace
  file (the writer's pid guard is the backstop).
* At batch collection the parent calls :func:`merge_batch` — in seed
  order — folding worker metrics into the session registry and replaying
  buffered spans (stamped with their seed ``scope``) into the trace.
"""

from __future__ import annotations

import logging
import sys
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import Tracer, TraceWriter

logger = logging.getLogger(__name__)

#: Stage names of the per-stage time histograms (``stage.<name>.seconds``)
#: and the rows of :func:`repro.analysis.table_stage_profile`.
STAGES = ("generate", "frontend", "optimize", "execute", "oracle", "reduce")


class _NullContext:
    """Shared do-nothing context manager returned on every disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, key: str, value: Any) -> None:
        return None


_NULL = _NullContext()


class SeedScope:
    """Telemetry captured while one seed runs: a registry plus span buffer."""

    __slots__ = ("seed_index", "metrics", "tracer")

    def __init__(self, seed_index: int, tracing: bool) -> None:
        self.seed_index = seed_index
        self.metrics = MetricsRegistry()
        self.tracer = Tracer() if tracing else None

    def payload(self) -> dict:
        """JSON-safe batch payload the parent merges at collection time."""
        payload = {"seed": self.seed_index, "metrics": self.metrics.to_json()}
        if self.tracer is not None:
            payload["spans"] = self.tracer.events
        return payload


class TelemetrySession:
    """The enabled-state bundle installed by :func:`enable`."""

    def __init__(self, campaign: Optional[str] = None, tracing: bool = False,
                 trace_writer: Optional[TraceWriter] = None) -> None:
        self.campaign = campaign
        self.tracing = tracing or trace_writer is not None
        self.trace_writer = trace_writer
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(writer=trace_writer) if self.tracing else None
        self.scope: Optional[SeedScope] = None

    def close(self) -> None:
        if self.trace_writer is not None:
            self.trace_writer.close()


_STATE: Optional[TelemetrySession] = None


# -- lifecycle --------------------------------------------------------------------------


def enable(campaign: Optional[str] = None, tracing: bool = False,
           trace_path: Optional[str] = None) -> TelemetrySession:
    """Install a telemetry session; returns it.  Replaces any active one.

    Metrics collection is always on while a session is active; *tracing*
    additionally records spans, and *trace_path* streams them to a JSONL
    file (opening with a ``meta`` event identifying the campaign).
    """
    global _STATE
    if _STATE is not None:
        disable()
    writer = TraceWriter(trace_path) if trace_path else None
    session = TelemetrySession(campaign=campaign, tracing=tracing,
                               trace_writer=writer)
    if writer is not None and session.tracer is not None:
        session.tracer.emit({"ev": "meta", "version": 1, "campaign": campaign,
                             "created": time.time()})
    _STATE = session
    logger.debug("telemetry enabled (tracing=%s, trace_path=%s)",
                 session.tracing, trace_path)
    return session


def disable() -> Optional[TelemetrySession]:
    """Tear down the active session (closing any writer) and return it."""
    global _STATE
    session, _STATE = _STATE, None
    if session is not None:
        session.close()
        logger.debug("telemetry disabled")
    return session


def reset_inherited() -> None:
    """Drop state inherited across ``fork`` without touching the writer.

    Called first thing in pool worker initializers: the child must not
    close (or ever write) the parent's trace file handle.
    """
    global _STATE
    _STATE = None


def current() -> Optional[TelemetrySession]:
    return _STATE


def worker_flags() -> Optional[dict]:
    """Serializable enablement flags to ship to pool workers via initargs."""
    if _STATE is None:
        return None
    return {"campaign": _STATE.campaign, "tracing": _STATE.tracing}


def enable_from_flags(flags: Optional[dict]) -> None:
    """Worker-side counterpart of :func:`worker_flags` (no trace writer)."""
    reset_inherited()
    if flags:
        enable(campaign=flags.get("campaign"),
               tracing=bool(flags.get("tracing")))


# -- seed scopes and batch merge --------------------------------------------------------


@contextmanager
def seed_scope(seed_index: int) -> Iterator[Optional[SeedScope]]:
    """Route telemetry for one seed into a fresh scope; yields it (or None).

    Yields ``None`` when telemetry is disabled.  Scopes do not nest: an
    inner call while a scope is active yields ``None`` and the outer scope
    keeps collecting.
    """
    session = _STATE
    if session is None or session.scope is not None:
        yield None
        return
    scope = SeedScope(seed_index, tracing=session.tracing)
    session.scope = scope
    try:
        yield scope
    finally:
        session.scope = None


def merge_batch(payload: Optional[dict]) -> None:
    """Fold one batch's telemetry payload into the session (parent side).

    Called once per batch from campaign ``collect()`` — the single merge
    point, always in seed order.  Buffered worker spans are stamped with
    their seed index (``scope``) and replayed into the session tracer.
    """
    session = _STATE
    if session is None or not payload:
        return
    session.metrics.merge_json(payload.get("metrics"))
    if session.tracer is not None:
        seed_index = payload.get("seed")
        for event in payload.get("spans", ()):
            stamped = dict(event)
            stamped["scope"] = seed_index
            session.tracer.emit(stamped)


# -- instrumentation fast paths ---------------------------------------------------------


def metrics() -> Optional[MetricsRegistry]:
    """The registry to record into right now, or None when disabled."""
    session = _STATE
    if session is None:
        return None
    scope = session.scope
    return scope.metrics if scope is not None else session.metrics


def tracer() -> Optional[Tracer]:
    """The tracer to open spans on right now, or None when not tracing."""
    session = _STATE
    if session is None:
        return None
    scope = session.scope
    if scope is not None:
        return scope.tracer
    return session.tracer


def inc(name: str, amount: int = 1) -> None:
    session = _STATE
    if session is None:
        return
    registry = session.scope.metrics if session.scope is not None \
        else session.metrics
    registry.inc(name, amount)


def span(name: str, **attrs: Any):
    """A traced span, or the shared null context when not tracing."""
    active = tracer()
    if active is None:
        return _NULL
    return active.span(name, **attrs)


def heartbeat(seed_index: int) -> None:
    """Record a worker liveness pulse for the seed that just completed.

    Sets the ``worker.heartbeat.time`` (wall clock) and
    ``worker.heartbeat.seed`` gauges and bumps the ``worker.heartbeats``
    counter.  Gauges merge by maximum, so after the parent-side batch merge
    the session metrics always carry the *latest* pulse any worker sent —
    the liveness signal health monitoring reads.  The counter increments
    exactly once per seed, keeping ``deterministic_totals()`` identical
    between serial and parallel runs.  Disabled: one global check.
    """
    session = _STATE
    if session is None:
        return
    registry = session.scope.metrics if session.scope is not None \
        else session.metrics
    registry.gauge("worker.heartbeat.time").set(time.time())
    registry.gauge("worker.heartbeat.seed").set(float(seed_index))
    registry.inc("worker.heartbeats")


class _StageContext:
    """Times one pipeline stage: histogram observation plus optional span."""

    __slots__ = ("name", "attrs", "_span", "_start")

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_StageContext":
        active = tracer()
        self._span = None
        if active is not None:
            self._span = active.span(self.name, **self.attrs)
            self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._start
        registry = metrics()
        if registry is not None:
            registry.observe(f"stage.{self.name}.seconds", elapsed)
        if self._span is not None:
            self._span.__exit__(exc_type, exc, tb)

    def set(self, key: str, value: Any) -> None:
        if self._span is not None:
            self._span.set(key, value)


def stage(name: str, **attrs: Any):
    """Instrument one pipeline stage (see :data:`STAGES`).

    Records a ``stage.<name>.seconds`` histogram observation and, when
    tracing, a span of the same name.  Disabled: returns the shared null
    context — one global check, no allocation beyond the kwargs dict.
    Enabled, a *name* outside :data:`STAGES` raises ``ValueError``: the
    stage profile neither lists nor subtracts an unregistered stage, so its
    time would silently land in its parent stage.
    """
    if _STATE is None:
        return _NULL
    if name not in STAGES:
        raise ValueError(f"unregistered telemetry stage {name!r} "
                         f"(registered: {', '.join(STAGES)})")
    return _StageContext(name, attrs)


# -- logging ----------------------------------------------------------------------------

_LOG_LEVELS = {0: logging.WARNING, 1: logging.INFO, 2: logging.DEBUG}


def configure_logging(verbosity: int = 0, stream=None) -> logging.Logger:
    """Configure the ``repro`` logger hierarchy for CLI/standalone use.

    verbosity 0 → WARNING (quiet), 1 → INFO (progress and summaries),
    2+ → DEBUG (per-seed and cache detail).  Installs exactly one stream
    handler on the ``repro`` root logger; calling again (repeated CLI
    invocations in one process) retargets that same handler in place —
    never a second one, so a message can never be emitted twice.  Library
    use never needs this — module loggers propagate to whatever the
    application configured.
    """
    level = _LOG_LEVELS.get(max(0, min(2, verbosity)), logging.WARNING)
    root = logging.getLogger("repro")
    tagged = [h for h in root.handlers
              if getattr(h, "_repro_telemetry", False)]
    # Surviving duplicates (e.g. handlers installed by code predating the
    # idempotence guarantee) collapse down to the first.
    for extra in tagged[1:]:
        root.removeHandler(extra)
        extra.close()
    if tagged:
        handler = tagged[0]
        # Retarget in place, bypassing setStream(): it flushes the old
        # stream first, which raises if a previous target (say, a captured
        # stderr from an earlier CLI invocation) has since been closed.
        target = stream if stream is not None else sys.stderr
        if handler.stream is not target:
            handler.acquire()
            try:
                handler.stream = target
            finally:
                handler.release()
    else:
        handler = logging.StreamHandler(stream if stream is not None
                                        else sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        handler._repro_telemetry = True  # type: ignore[attr-defined]
        root.addHandler(handler)
    root.setLevel(level)
    return root
