"""Outside-in instrumentation of the ``repro`` layers for the campaign benchmark.

The benchmark never edits program code.  Instead, :func:`install` wraps the
public entry points of each ``repro`` module before the campaign is built:
class methods are wrapped on their class, and a function imported by name
(``parse_program``, ``analyze``, ``compile_program`` ...) is replaced in
every loaded ``repro`` module that holds a reference to it.

Two modes share the wrappers:

* ``spans=False`` (untraced runs) installs only the boundaries that count
  attempted and failed operations, with one clock read per call to
  schedule reference chunks;
* ``spans=True`` (traced runs) records a span per call -- name, start, end,
  parent span and seed index -- plus counts at the same boundaries.

A layer's self time is its span time minus the time its child spans cover;
it is accumulated when each span closes.  Event counts the program's own
telemetry already keeps (VM steps, batch reuse, cache evictions, planted
markers, FN candidates) are read from the campaign's telemetry summary
instead of being counted again here.

In both modes every wrapper first lets the machine-speed reference
(:mod:`speed`) run a chunk when one is due, so chunks spread evenly over
the campaign; traced runs give each chunk its own span so that no layer
is charged for it.

An entry point that no longer exists is recorded in ``Recorder.absent``
instead of failing the run, so a change that deletes or renames it can
still run the benchmark unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

#: The optimizer passes whose self time is reported one by one.
PASS_NAMES = ("constant-fold", "constprop", "dce", "dse", "loop-opts",
              "simplify")


class Recorder:
    """In-memory spans and counts of the campaign process."""

    def __init__(self, spans: bool, meter) -> None:
        self.spans_enabled = spans
        self.meter = meter
        self.absent: list = []
        self.spans: list = []
        self.stack: list = []
        self.depth: dict = {}
        self.self_s: dict = {}
        self.total_s: dict = {}
        self.counts: dict = {}
        self.seed = None

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def enter(self, name: str) -> list:
        index = len(self.spans)
        parent = self.stack[-1][3] if self.stack else -1
        self.spans.append(None)
        self.depth[name] = self.depth.get(name, 0) + 1
        frame = [name, time.perf_counter(), 0.0, index, parent]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        name, start, child, index, parent = frame
        duration = end - start
        self.stack.pop()
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        depth = self.depth[name] - 1
        self.depth[name] = depth
        if depth == 0:
            self.total_s[name] = self.total_s.get(name, 0.0) + duration
        if self.stack:
            self.stack[-1][2] += duration
        self.spans[index] = (name, start, end, parent, self.seed)

    def inside(self, name: str) -> bool:
        return self.depth.get(name, 0) > 0

    def reference(self) -> None:
        """Run a machine-speed reference chunk if one is due."""
        if not self.meter.due():
            return
        frame = self.enter("reference") if self.spans_enabled else None
        self.meter.sample()
        if frame is not None:
            self.exit(frame)


# -- wrapping helpers ----------------------------------------------------------

def _wrap(rec: Recorder, name: str, fn, span: bool, after=None,
          failed_if=None, before=None):
    """Wrap *fn*: count calls, failures (raised or ``failed_if(result)``),
    optionally time a span named *name* and call ``after(args, result)``."""
    calls_key, failed_key = name + ".calls", name + ".failed"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.reference()
        if before is not None:
            before()
        rec.count(calls_key)
        frame = rec.enter(name) if span else None
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            if frame is not None:
                rec.exit(frame)
            rec.count(failed_key)
            raise
        if frame is not None:
            rec.exit(frame)
        if failed_if is not None and failed_if(result):
            rec.count(failed_key)
        if after is not None:
            after(result)
        return result

    return wrapper


def _resolve(rec: Recorder, dotted: str):
    """``module:attr[.attr]`` -> (owner, attr name, object), or None."""
    module_name, _, path = dotted.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except (ImportError, AttributeError):
        rec.absent.append(dotted)
        return None


def wrap_method(rec: Recorder, dotted: str, name: str, span: bool, **hooks):
    resolved = _resolve(rec, dotted)
    if resolved is None:
        return
    owner, attr, fn = resolved
    setattr(owner, attr, _wrap(rec, name, fn, span, **hooks))


def wrap_function(rec: Recorder, dotted: str, name: str, span: bool, **hooks):
    """Wrap a module-level function everywhere it was imported by name."""
    resolved = _resolve(rec, dotted)
    if resolved is None:
        return
    _, _, fn = resolved
    wrapper = _wrap(rec, name, fn, span, **hooks)
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)


def wrap_subclass_methods(rec: Recorder, dotted_base: str, method: str,
                          name_of, span: bool):
    """Wrap *method* on every loaded subclass of a base class that
    defines it itself (optimizer passes, sanitizer passes)."""
    resolved = _resolve(rec, dotted_base)
    if resolved is None:
        return
    pending = list(resolved[2].__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if method in vars(cls):
            setattr(cls, method, _wrap(rec, name_of(cls), vars(cls)[method],
                                       span))


# -- installation --------------------------------------------------------------

def install(rec: Recorder) -> None:
    """Wrap every layer boundary; must run before the campaign is built."""
    spans = rec.spans_enabled
    import repro  # noqa: F401  (loads every layer the wrappers patch)
    import repro.orchestrator.checkpoint  # noqa: F401
    import repro.telemetry.store  # noqa: F401

    # Operations counted against attempts in every run (failure accounting).
    wrap_method(rec, "repro.seedgen.csmith:CsmithGenerator.generate",
                "seedgen", spans)
    wrap_method(rec, "repro.compilers.compiler:SimulatedCompiler.compile",
                "compilers.compile", spans,
                before=_probe_counter(rec) if spans else None)
    wrap_method(rec, "repro.compilers.binary:CompiledBinary.run", "vm.run",
                spans, failed_if=lambda result: result.status == "vm_error")
    wrap_method(rec, "repro.markers.oracle:EliminationOracle.survey",
                "markers.survey", spans)
    _wrap_seed(rec)
    if not spans:
        return

    wrap_method(rec, "repro.core.ubgen:UBGenerator.generate_all",
                "core.ubgen", True,
                after=lambda result: rec.count(
                    "core.ubgen.programs", sum(map(len, result.values()))))
    wrap_method(rec, "repro.markers.instrument:MarkerPlanter.plant",
                "markers.plant", True)
    wrap_method(rec, "repro.markers.oracle:EliminationOracle.liveness",
                "markers.liveness", True)
    wrap_method(rec, "repro.markers.oracle:EliminationOracle.compile_one",
                "markers.compile_one", True)
    wrap_function(rec, "repro.markers.instrument:marker_calls",
                  "markers.scan", True)
    wrap_function(rec, "repro.cdsl.parser:parse_program", "cdsl.parse", True)
    wrap_function(rec, "repro.cdsl.sema:analyze", "cdsl.sema", True)
    wrap_function(rec, "repro.cdsl.visitor:fast_clone", "cdsl.clone", True)
    wrap_method(rec, "repro.optim.passes:PassPipeline.run", "optim.pipeline",
                True)
    wrap_subclass_methods(rec, "repro.optim.passes:OptimizationPass", "run",
                          lambda cls: f"optim.pass.{cls.name}", True)
    wrap_subclass_methods(rec, "repro.sanitizers.base:SanitizerPass",
                          "instrument", lambda cls: "sanitizers.instrument",
                          True)
    for layer in ("frontend", "optimized", "closure"):
        _wrap_cache_layer(rec, layer)
    wrap_function(rec, "repro.vm.compile:compile_program",
                  "vm.closure_compile", True)
    wrap_function(rec, "repro.vm.batch:unit_digest", "vm.digest", True)
    wrap_method(rec, "repro.core.differential:DifferentialTester.test",
                "core.differential", True)
    wrap_method(rec, "repro.core.differential:DifferentialTester.analyze",
                "core.differential", True,
                after=lambda result: rec.count(
                    "core.differential.discrepant",
                    int(result.has_discrepancy)))
    wrap_function(rec, "repro.core.crash_site:is_sanitizer_bug_from_results",
                  "core.crash_site", False)
    for method in ("triage_fn_candidate", "triage_wrong_report"):
        wrap_method(rec, f"repro.core.bugs:BugTriager.{method}", "core.bugs",
                    True, after=lambda result: rec.count(
                        "core.bugs.candidates"))
    wrap_method(rec, "repro.core.bugs:BugTriager.deduplicate", "core.bugs",
                True, after=lambda result: rec.count("core.bugs.reports",
                                                     len(result)))
    wrap_method(rec, "repro.orchestrator.campaign:OrchestratedCampaign.run",
                "orchestrator.campaign", True)
    wrap_method(rec, "repro.orchestrator.checkpoint:CampaignCheckpoint.record",
                "orchestrator.checkpoint", True)
    _wrap_checkpoint_flush(rec)
    for method in ("ingest", "flush", "finalize"):
        wrap_method(rec, f"repro.orchestrator.corpus:CorpusStore.{method}",
                    "orchestrator.corpus", True)
    for method in ("ingest_delta", "ingest_marker_result"):
        wrap_method(rec, f"repro.corpusdb.db:FindingsDB.{method}", "corpusdb",
                    True)
    wrap_method(rec, "repro.telemetry.store:TelemetryStore.ingest_campaign",
                "telemetry.store", True)


def _probe_counter(rec: Recorder):
    """Count compiles issued under triage (``core.bugs.probes``)."""
    def before():
        if rec.inside("core.bugs"):
            rec.count("core.bugs.probes")
    return before


def _wrap_checkpoint_flush(rec: Recorder) -> None:
    """Span ``CampaignCheckpoint.flush`` and count the bytes it writes."""
    resolved = _resolve(
        rec, "repro.orchestrator.checkpoint:CampaignCheckpoint.flush")
    if resolved is None:
        return
    owner, attr, fn = resolved
    timed = _wrap(rec, "orchestrator.checkpoint", fn, True)

    def stat(path):
        try:
            info = os.stat(path)
        except OSError:
            return None
        return info.st_ino, info.st_mtime_ns, info.st_size

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        before = stat(self.path)
        result = timed(self, *args, **kwargs)
        after = stat(self.path)
        if after is not None and after != before:
            rec.count("orchestrator.checkpoint.bytes", after[2])
        return result

    setattr(owner, attr, wrapper)


def _wrap_cache_layer(rec: Recorder, layer: str) -> None:
    """Count hits and misses of one ``CompilationCache`` layer: a call to
    the builder is a miss, any other call a hit.  (The program's telemetry
    counts hits and misses over all layers together.)"""
    resolved = _resolve(rec, f"repro.compilers.cache:CompilationCache.{layer}")
    if resolved is None:
        return
    owner, attr, fn = resolved
    signature = inspect.signature(fn)
    if "builder" not in signature.parameters:
        rec.absent.append(f"CompilationCache.{layer}(builder)")
        return
    prefix = f"compilers.cache.{layer}"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        builder = bound.arguments["builder"]
        built = []

        def counted_builder():
            built.append(True)
            return builder()

        bound.arguments["builder"] = counted_builder
        result = fn(*bound.args, **bound.kwargs)
        rec.count(prefix + (".misses" if built else ".hits"))
        return result

    setattr(owner, attr, wrapper)


def _wrap_seed(rec: Recorder) -> None:
    """A span per seed program, then the machine-speed reference."""
    for dotted in ("repro.core.fuzzer:FuzzingCampaign.run_seed",
                   "repro.markers.engine:MarkerEngine.run_seed"):
        resolved = _resolve(rec, dotted)
        if resolved is None:
            continue
        owner, attr, fn = resolved
        setattr(owner, attr, _seed_wrapper(rec, fn))


def _seed_wrapper(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(self, seed_index, *args, **kwargs):
        rec.seed = seed_index
        frame = rec.enter("seed") if rec.spans_enabled else None
        try:
            return fn(self, seed_index, *args, **kwargs)
        finally:
            if frame is not None:
                rec.exit(frame)
            rec.seed = None
    return wrapper


# -- per-layer metrics ---------------------------------------------------------

def per_layer(rec: Recorder, telemetry: dict, wall: float,
              workdir: str) -> dict:
    """The per-layer metrics of one traced campaign of *wall* seconds
    (reference chunks excluded); *telemetry* is the campaign's summary."""
    counts, self_s = rec.counts, rec.self_s
    totals = telemetry.get("totals", {})

    def count(key):
        return counts.get(key, 0)

    def ratio(part, base):
        return part / base if base else 0.0

    metrics = {}
    for name in ("seedgen", "cdsl.parse", "cdsl.sema", "cdsl.clone",
                 "optim.pipeline", "sanitizers.instrument",
                 "compilers.compile", "vm.closure_compile", "vm.run"):
        metrics[name + ".calls"] = count(name + ".calls")
    for name in ("seedgen", "core.ubgen", "markers.plant", "markers.liveness",
                 "markers.scan", "cdsl.parse", "cdsl.sema", "cdsl.clone",
                 "optim.pipeline", "sanitizers.instrument",
                 "compilers.compile", "vm.closure_compile", "vm.run",
                 "vm.digest", "core.differential", "core.bugs",
                 "orchestrator.checkpoint", "orchestrator.corpus", "corpusdb",
                 "telemetry.store", "seed"):
        metrics[name + ".self_s"] = self_s.get(name, 0.0)
    for name in PASS_NAMES:
        metrics[f"optim.pass.{name}.self_s"] = self_s.get(
            f"optim.pass.{name}", 0.0)
    for name in ("seedgen", "compilers.compile", "vm.run", "markers.survey"):
        metrics[name + ".failed"] = count(name + ".failed")
    metrics["markers.survey.self_s"] = (self_s.get("markers.survey", 0.0)
                                        + self_s.get("markers.compile_one", 0.0))
    metrics["markers.planted"] = totals.get("marker.planted", 0)
    metrics["core.ubgen.programs"] = count("core.ubgen.programs")

    for layer in ("frontend", "optimized", "closure"):
        prefix = f"compilers.cache.{layer}"
        hits, misses = count(prefix + ".hits"), count(prefix + ".misses")
        metrics[prefix + ".hits"] = hits
        metrics[prefix + ".misses"] = misses
        metrics[prefix + ".hit_ratio"] = ratio(hits, hits + misses)
    metrics["compilers.cache.evictions"] = telemetry.get(
        "cache", {}).get("evictions", 0)

    steps = totals.get("vm.steps", 0)
    metrics["vm.steps"] = steps
    metrics["vm.steps_per_s"] = ratio(steps, self_s.get("vm.run", 0.0))
    reused = totals.get("vm.batch.reused", 0)
    executions = totals.get("stage.execute.seconds.count", 0)
    metrics["vm.batch.reused"] = reused
    metrics["vm.batch.executions"] = executions
    metrics["vm.batch.reuse_ratio"] = ratio(reused, reused + executions)

    discrepant = count("core.differential.discrepant")
    fn_candidates = totals.get("diff.fn_candidates", 0)
    metrics["core.differential.discrepant"] = discrepant
    metrics["core.differential.fn_candidates"] = fn_candidates
    metrics["core.differential.fn_yield"] = ratio(fn_candidates, discrepant)
    metrics["core.crash_site.calls"] = count("core.crash_site.calls")

    candidates = count("core.bugs.candidates")
    metrics["core.bugs.calls"] = count("core.bugs.calls")
    metrics["core.bugs.total_s"] = rec.total_s.get("core.bugs", 0.0)
    metrics["core.bugs.probes"] = count("core.bugs.probes")
    metrics["core.bugs.candidates"] = candidates
    metrics["core.bugs.reports"] = count("core.bugs.reports")
    metrics["core.bugs.report_yield"] = ratio(count("core.bugs.reports"),
                                              candidates)

    metrics["orchestrator.checkpoint.bytes"] = count(
        "orchestrator.checkpoint.bytes")
    metrics["corpusdb.bytes"] = sum(
        os.path.getsize(os.path.join(directory, name))
        for directory, _, names in os.walk(workdir)
        for name in names if ".sqlite" in name)
    metrics["unattributed_share"] = ratio(
        self_s.get("orchestrator.campaign", 0.0), wall)
    return metrics
