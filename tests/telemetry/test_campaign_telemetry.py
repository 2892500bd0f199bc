"""End-to-end telemetry through the orchestrator: traced campaigns persist
their telemetry, parallel merges match serial totals bit-for-bit (apart
from the cache accounting of parent-side triage), and the ``stats``
subcommand replays it all."""

from __future__ import annotations

import json
import os

import pytest

from repro.core import CampaignConfig, UBType, ubgen
from repro.orchestrator import OrchestratedCampaign
from repro.orchestrator.cli import main as cli_main
from repro.seedgen import csmith
from repro.telemetry import MetricsRegistry, load_profile, read_trace
from repro.telemetry import runtime as telemetry
from repro.telemetry.profile import telemetry_paths

#: Same scale the orchestrator determinism tests use: three seeds shard
#: across two workers while keeping the module fast.
SCALE = dict(num_seeds=3, rng_seed=5, max_programs_per_type=1,
             opt_levels=("-O0", "-O2"))


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """One serial and one two-worker traced campaign over identical configs.

    The parallel run also gets a findings database of its own (the CLI's
    ``--db``), so the one-SQLite-owner test rides the same campaign."""
    telemetry.disable()
    runs = {}
    for label, workers in (("serial", 1), ("parallel", 2)):
        root = str(tmp_path_factory.mktemp(label))
        db_path = (os.path.join(root, "findings.sqlite")
                   if workers == 2 else None)
        campaign = OrchestratedCampaign(
            CampaignConfig(**SCALE), workers=workers, corpus=root,
            checkpoint_path=os.path.join(root, "checkpoint.json"),
            trace=True, db_path=db_path)
        campaign.run()
        runs[label] = (root, campaign)
    telemetry.disable()
    return runs


def _totals(root: str) -> dict:
    _, metrics_path = telemetry_paths(root)
    with open(metrics_path, "r", encoding="utf-8") as handle:
        snapshot = json.load(handle)
    return MetricsRegistry.from_json(snapshot["metrics"]).deterministic_totals()


#: Cache lookups and the frontend/optimize builds behind cache misses.  A
#: serial campaign triages on the campaign object whose seeds warmed its
#: cache; a pooled campaign triages in a parent whose cache no seed touched.
CACHE_ACCOUNTING = ("cache.", "stage.frontend.", "stage.optimize.")


def test_parallel_merge_equals_serial_totals(traced_runs):
    serial = _totals(traced_runs["serial"][0])
    parallel = _totals(traced_runs["parallel"][0])

    def without_cache_accounting(totals):
        return {name: value for name, value in totals.items()
                if not name.startswith(CACHE_ACCOUNTING)}

    assert serial.keys() == parallel.keys()
    assert without_cache_accounting(serial) == without_cache_accounting(
        parallel)
    # Serial triage finds programs the seeds parsed in the shared cache.
    assert serial["cache.misses"] < parallel["cache.misses"]
    assert (serial["stage.frontend.seconds.count"]
            < parallel["stage.frontend.seconds.count"])
    # And the totals are substantive, not vacuously equal empties.
    for key in ("cache.hits", "cache.misses", "diff.programs", "vm.runs",
                "stage.execute.seconds.count"):
        assert serial[key] > 0, key


def test_trace_file_structure(traced_runs):
    root, _ = traced_runs["serial"]
    trace_path, metrics_path = telemetry_paths(root)
    assert os.path.exists(trace_path) and os.path.exists(metrics_path)
    events = read_trace(trace_path)
    assert events[0]["ev"] == "meta" and events[0]["version"] == 1
    spans = [event for event in events if event["ev"] == "span"]
    # Worker spans are stamped with their seed scope; the campaign span is
    # parent-side (no scope) and closes last.
    assert {event.get("scope") for event in spans
            if event.get("scope") is not None} == {0, 1, 2}
    assert spans[-1]["name"] == "campaign"
    assert spans[-1].get("scope") is None


def test_campaign_summary_checkpoint_and_corpus(traced_runs):
    root, campaign = traced_runs["serial"]
    summary = campaign.telemetry_summary
    assert summary is not None
    assert summary["cache"]["hits"] > 0
    assert summary["totals"]["diff.programs"] > 0

    # metrics.json, next to the corpus, carries the same cache counters
    # and the health record; the checkpoint holds campaign state only.
    _, metrics_path = telemetry_paths(root)
    with open(metrics_path, encoding="utf-8") as handle:
        snapshot = json.load(handle)
    metrics = MetricsRegistry.from_json(snapshot["metrics"])
    assert {name: metrics.counter_value(f"cache.{name}")
            for name in summary["cache"]} == summary["cache"]
    assert snapshot["health"] == summary["health"]
    with open(os.path.join(root, "checkpoint.json"), encoding="utf-8") as handle:
        assert "metadata" not in json.load(handle)


def test_serial_and_sharded_checkpoints_are_byte_identical(traced_runs):
    """A checkpoint record holds no wall-clock figure, so one config writes
    the same bytes whether one worker or two ran its seeds."""
    snapshots = []
    for label in ("serial", "parallel"):
        root, _ = traced_runs[label]
        with open(os.path.join(root, "checkpoint.json"), "rb") as handle:
            snapshots.append(handle.read())
    assert snapshots[0] == snapshots[1]


def test_load_profile_replays_stage_breakdown(traced_runs):
    root, _ = traced_runs["serial"]
    profile = load_profile(root)
    assert profile.seed_count == 3 and profile.span_count > 0
    assert profile.wall_seconds and profile.wall_seconds > 0
    for name in ("generate", "frontend", "optimize", "execute"):
        assert profile.stage(name).calls > 0, name
        assert profile.stage(name).total_seconds >= profile.stage(name).self_seconds
    assert profile.counters["cache.hits"] > 0


def test_stats_cli_renders_profile(traced_runs, capsys):
    root, _ = traced_runs["serial"]
    assert cli_main(["stats", root]) == 0
    out = capsys.readouterr().out
    assert "stage profile" in out
    assert "generate" in out and "execute" in out
    assert "compilation cache" in out
    counters = load_profile(root).counters
    assert counters["optim.function_runs"] > 0
    assert counters["optim.function_skips"] > 0
    assert (f"optimizer             : {counters['optim.function_runs']} "
            f"function-pass runs, {counters['optim.function_skips']} skipped "
            f"as known no-ops") in out
    assert "vm" in out

    assert cli_main(["stats", root, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seeds"] == 3
    assert {stage["name"] for stage in report["stages"]} == set(telemetry.STAGES)


def test_stats_cli_counts_swallowed_errors(tmp_path, capsys, monkeypatch):
    """Mutations forced invalid are dropped, counted, and replayed."""
    attempted = []

    def invalid_synthesize(*args, **kwargs):
        mutation = real_synthesize(*args, **kwargs)
        if mutation is not None:
            # An undeclared auxiliary variable fails validation.
            mutation.augment.append(("__self__", "__ub_undeclared"))
            attempted.append(mutation)
        return mutation

    real_synthesize = ubgen.synthesize
    monkeypatch.setattr(ubgen, "synthesize", invalid_synthesize)
    root = str(tmp_path / "corpus")
    OrchestratedCampaign(
        CampaignConfig(num_seeds=1, rng_seed=5, max_programs_per_type=1,
                       opt_levels=("-O0",), ub_types=(UBType.DIVIDE_BY_ZERO,),
                       triage=False),
        corpus=root, trace=True).run()
    assert attempted
    assert cli_main(["stats", root]) == 0
    assert (f"swallowed errors      : 0 compile errors, {len(attempted)} "
            f"invalid mutations, 0 profile failures"
            in capsys.readouterr().out)


def test_stats_cli_counts_dropped_seeds(tmp_path, capsys, monkeypatch):
    """A seed index whose every attempt fails validation is dropped,
    counted with its attempts, and replayed."""
    monkeypatch.setattr(csmith, "runs_to_completion",
                        lambda attempt: "execution: rejected")
    root = str(tmp_path / "corpus")
    result = OrchestratedCampaign(
        CampaignConfig(num_seeds=1, rng_seed=5, max_programs_per_type=1,
                       opt_levels=("-O0",), ub_types=(UBType.DIVIDE_BY_ZERO,),
                       triage=False),
        corpus=root, trace=True).run()
    assert result.stats.seeds_used == 0
    assert cli_main(["stats", root]) == 0
    assert ("0 profile failures, 4 invalid seed attempts, 1 dropped seeds"
            in capsys.readouterr().out)


def test_stats_cli_untraced_dir_exits_clean(tmp_path, capsys):
    # An existing campaign dir that was never traced is not an error: say
    # so explicitly, point at --trace, exit 0.
    assert cli_main(["stats", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "no telemetry recorded" in captured.out
    assert "--trace" in captured.out
    assert captured.err == ""


def test_stats_cli_missing_dir_is_error(tmp_path, capsys):
    assert cli_main(["stats", str(tmp_path / "nope")]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""


def test_cli_rejects_bad_trace_combinations(capsys):
    # --trace needs a persistent corpus to put the trace in.
    assert cli_main(["--seeds", "1", "--trace", "--quiet"]) == 2
    assert "error: trace=True (--trace) requires corpus=<dir> (--corpus)" \
        in capsys.readouterr().err
    # Marker campaigns have no corpus storage, hence no trace persistence;
    # asking for --corpus as well would be refused too, so the message
    # says so instead of asking for it.
    assert cli_main(["--mode", "markers", "--seeds", "1", "--trace",
                     "--quiet"]) == 2
    assert ("error: trace=True (--trace) writes its spans into "
            "corpus=<dir> (--corpus) storage, which marker campaigns do not "
            "support") in capsys.readouterr().err


def test_cli_traced_run_prints_cache_and_telemetry_lines(tmp_path, capsys):
    corpus = str(tmp_path / "corpus")
    exit_code = cli_main([
        "--seeds", "2", "--rng-seed", "5", "--max-programs-per-type", "1",
        "--opt-levels=-O0,-O2", "--no-triage", "--quiet",
        "--corpus", corpus, "--trace",
    ])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "compilation cache" in out
    assert "hit rate" in out
    assert os.path.join(corpus, "telemetry") in out
    # The run is replayable straight away.
    assert cli_main(["stats", corpus]) == 0
    assert "stage profile" in capsys.readouterr().out


def test_untraced_persistent_run_still_records_metrics(tmp_path):
    """metrics.json lands for any persistent-corpus run; stats falls back to
    the histogram synthesis when there are no span events."""
    root = str(tmp_path / "corpus")
    campaign = OrchestratedCampaign(
        CampaignConfig(num_seeds=2, rng_seed=5, max_programs_per_type=1,
                       opt_levels=("-O0", "-O2"), triage=False),
        corpus=root)
    campaign.run()
    trace_path, metrics_path = telemetry_paths(root)
    assert not os.path.exists(trace_path)
    assert os.path.exists(metrics_path)
    profile = load_profile(root)
    assert profile.span_count == 0
    assert profile.stage("execute").calls > 0  # synthesized from histograms


# ---------------------------------------------------------------------------
# Observatory: one SQLite owner, exports, watch
# ---------------------------------------------------------------------------


def test_db_file_holds_only_findings_tables(traced_runs):
    """``--db`` names the findings database alone: after a fuzz campaign
    the file holds ``corpus_*`` tables and nothing else (SQLite's own
    ``sqlite_*`` tables aside)."""
    import sqlite3
    root, _ = traced_runs["parallel"]
    conn = sqlite3.connect(os.path.join(root, "findings.sqlite"))
    try:
        tables = {row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")
            if not row[0].startswith("sqlite_")}
    finally:
        conn.close()
    assert "corpus_buckets" in tables
    assert sorted(name for name in tables
                  if not name.startswith("corpus_")) == []


def test_campaign_summary_includes_health(traced_runs):
    _, campaign = traced_runs["serial"]
    health = campaign.telemetry_summary["health"]
    assert health["status"] == "ok"
    assert health["batches"] == 3 and health["stalls"] == 0


def test_db_is_not_a_subcommand(capsys):
    # The campaign parser takes no positional argument, so the retired
    # telemetry-store subcommand is a usage error, not a campaign.
    with pytest.raises(SystemExit) as exited:
        cli_main(["db", "--db", "x.sqlite", "query"])
    assert exited.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_db_requires_persistent_corpus(capsys):
    assert cli_main(["--seeds", "1", "--db", "x.sqlite", "--quiet"]) == 2
    assert "error: db_path (--db) requires corpus=<dir> (--corpus)" \
        in capsys.readouterr().err


def test_stats_cli_exports(traced_runs, tmp_path, capsys):
    from repro.telemetry import parse_chrome_trace, parse_folded_stacks
    root, _ = traced_runs["serial"]
    chrome = str(tmp_path / "trace.json")
    folded = str(tmp_path / "trace.folded")
    assert cli_main(["stats", root, "--export-chrome", chrome,
                     "--export-folded", folded]) == 0
    out = capsys.readouterr().out
    assert chrome in out and folded in out
    document = parse_chrome_trace(chrome)
    spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert spans and any(e["name"] == "campaign" for e in spans)
    assert all(isinstance(e["ts"], int) and e["dur"] >= 0 for e in spans)
    stacks = parse_folded_stacks(folded)
    assert any(path.startswith("seed;") for path in stacks)


def test_stats_export_without_trace_is_error(tmp_path, capsys):
    # Metrics alone (an untraced persistent run) cannot produce a span
    # export: the request is an explicit error, not a silent empty file.
    root = str(tmp_path / "corpus")
    _, metrics_path = telemetry_paths(root)
    os.makedirs(os.path.dirname(metrics_path))
    with open(metrics_path, "w", encoding="utf-8") as handle:
        json.dump({"campaign": "x", "metrics": MetricsRegistry().to_json()},
                  handle)
    target = str(tmp_path / "t.json")
    assert cli_main(["stats", root, "--export-chrome", target]) == 2
    captured = capsys.readouterr()
    assert "--trace" in captured.err
    assert not os.path.exists(target)

    # A dir with no telemetry at all keeps the clean exit-0 message even
    # when an export was requested.
    empty = str(tmp_path / "empty")
    os.makedirs(empty)
    assert cli_main(["stats", empty, "--export-chrome", target]) == 0
    assert "no telemetry recorded" in capsys.readouterr().out


def test_watch_renders_live_stats_against_running_campaign(tmp_path):
    import threading
    import time

    from repro.telemetry import WatchView
    root = str(tmp_path / "corpus")
    campaign = OrchestratedCampaign(
        CampaignConfig(num_seeds=2, rng_seed=5, max_programs_per_type=1,
                       opt_levels=("-O0", "-O2"), triage=False),
        corpus=root, trace=True)
    thread = threading.Thread(target=campaign.run)
    thread.start()
    try:
        view = WatchView(root)
        live_snapshots = []
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            view.refresh()
            if view.started and not view.finished:
                live_snapshots.append(view.snapshot())
            if view.finished:
                break
            time.sleep(0.05)
    finally:
        thread.join(timeout=120.0)
    assert not thread.is_alive()
    assert view.finished
    # The view observed the campaign mid-flight (the campaign_start event
    # lands before any seed executes) and rendered sane live stats.
    assert live_snapshots
    first = live_snapshots[0]
    assert first["seeds_total"] == 2 and first["workers"] == 1
    assert first["health"]["status"] in ("ok", "waiting")
    view.refresh()
    final = view.snapshot()
    assert final["seeds_done"] == 2 and final["finished"]
    assert final["health"]["status"] == "finished"
    lines = view.format_lines()
    assert lines and "seeds 2/2" in lines[0]


def test_watch_cli_once_mode(traced_runs, capsys):
    root, _ = traced_runs["serial"]
    assert cli_main(["watch", root, "--once"]) == 0
    out = capsys.readouterr().out
    assert "seeds 3/3" in out
    assert "health: finished" in out

    assert cli_main(["watch", root, "--once", "--json"]) == 0
    snap = json.loads(capsys.readouterr().out)
    assert snap["finished"] and snap["seeds_done"] == 3


def test_watch_cli_missing_dir_is_error(tmp_path, capsys):
    assert cli_main(["watch", str(tmp_path / "nope")]) == 2
    assert "error:" in capsys.readouterr().err
