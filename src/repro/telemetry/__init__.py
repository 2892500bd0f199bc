"""Campaign telemetry: structured tracing, metrics, logging and profiling.

The layer has six pieces:

* :mod:`repro.telemetry.metrics` — :class:`MetricsRegistry` with counters
  and fixed-edge histograms that merge deterministically across worker
  processes;
* :mod:`repro.telemetry.tracer` — :class:`Tracer` spans emitting structured
  JSONL events with parent nesting and seed identity;
* :mod:`repro.telemetry.runtime` — the process-wide nullable state every
  instrumentation hook checks (``enable``/``disable``, per-seed scopes,
  batch merge) plus :func:`configure_logging`;
* :mod:`repro.telemetry.profile` — replays a persisted
  ``telemetry/trace.jsonl`` + ``metrics.json`` pair into the per-stage
  profile behind ``python -m repro.orchestrator stats``;
* :mod:`repro.telemetry.monitor` — :class:`HealthMonitor` stall detection
  and the :class:`WatchView` live view behind the ``watch`` subcommand;
* :mod:`repro.telemetry.export` — Chrome trace-event and folded-stacks
  (flamegraph) exporters behind ``stats --export-chrome/--export-folded``.

(:mod:`repro.telemetry.store` is not part of the layer: it holds the
provenance stamp of bench artifacts, and this package does not import it.)

Everything is disabled by default; the instrumented hot paths reduce to a
single module-global ``is None`` check (see the fast-path rule in
``docs/ARCHITECTURE.md``).
"""

from repro.telemetry.export import (parse_chrome_trace, parse_folded_stacks,
                                    to_chrome_trace, to_folded_stacks,
                                    write_chrome_trace, write_folded_stacks)
from repro.telemetry.metrics import (DEFAULT_TIME_EDGES, Counter, Histogram,
                                     MetricsRegistry)
from repro.telemetry.monitor import (HealthMonitor, TraceFollower, WatchView)
from repro.telemetry.profile import (CampaignProfile, StageStats,
                                     load_profile, profile_from_events,
                                     telemetry_paths)
from repro.telemetry.runtime import (STAGES, TelemetrySession,
                                     configure_logging, current, disable,
                                     enable, merge_batch, seed_scope)
from repro.telemetry.tracer import Tracer, TraceWriter, read_trace

__all__ = [
    "DEFAULT_TIME_EDGES",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "CampaignProfile",
    "StageStats",
    "load_profile",
    "profile_from_events",
    "telemetry_paths",
    "STAGES",
    "TelemetrySession",
    "configure_logging",
    "current",
    "disable",
    "enable",
    "merge_batch",
    "seed_scope",
    "Tracer",
    "TraceWriter",
    "read_trace",
    "HealthMonitor",
    "TraceFollower",
    "WatchView",
    "to_chrome_trace",
    "write_chrome_trace",
    "parse_chrome_trace",
    "to_folded_stacks",
    "write_folded_stacks",
    "parse_folded_stacks",
]
