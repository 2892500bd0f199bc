"""Tests for the campaign orchestrator: the seed pool, determinism, corpus,
checkpoint/resume, throughput stats and the CLI."""

from __future__ import annotations

import dataclasses
import io
import json
import os
import pickle
import sys
from collections import Counter

import pytest

import repro.core.bugs as bugs_module
from repro.analysis import evaluate_oracle_accuracy
from repro.cdsl import parser
from repro.compilers.versions import trunk_version
from repro.core import CampaignConfig, FuzzingCampaign, SeedBatch
from repro.corpusdb import FindingsDB
from repro.orchestrator import (
    CampaignCheckpoint,
    CheckpointMismatch,
    CorpusStore,
    OrchestratedCampaign,
    ThroughputMonitor,
    batch_from_record,
    batch_to_record,
    config_fingerprint,
)
from repro.orchestrator.cli import main as cli_main
from repro.seedgen import CsmithGenerator, GeneratorConfig

#: One shared small campaign scale for the whole module (seeds are the unit
#: of parallelism, so three seeds exercise sharding across two workers).
MODULE_SCALE = dict(num_seeds=3, rng_seed=5, max_programs_per_type=1,
                    opt_levels=("-O0", "-O2"))


@pytest.fixture(scope="module")
def config() -> CampaignConfig:
    return CampaignConfig(**MODULE_SCALE)


@pytest.fixture(scope="module")
def serial_result(config):
    """The ground truth: the plain serial campaign."""
    return FuzzingCampaign(config).run()


@pytest.fixture(scope="module")
def fresh_batches(config):
    """Every seed batch of the module's campaign, as ``run_seed`` makes it."""
    campaign = FuzzingCampaign(config)
    return [campaign.run_seed(index) for index in range(config.num_seeds)]


def _report_keys(result):
    return sorted((report.bug_id, report.compiler, report.sanitizer,
                   report.ub_type, report.status,
                   tuple(report.affected_opt_levels),
                   tuple(report.affected_versions))
                  for report in result.bug_reports)


def _stat_tuple(result):
    stats = result.stats
    return (stats.seeds_used, dict(stats.programs_generated),
            stats.programs_tested, stats.discrepant_programs,
            stats.optimization_discrepancies, stats.fn_candidates,
            stats.wrong_report_candidates)


# ---------------------------------------------------------------------------
# The seed pool and determinism
# ---------------------------------------------------------------------------

def test_parallel_run_is_deterministic(config, serial_result):
    """The acceptance criterion: workers=2 reproduces workers=1 exactly."""
    corpus = CorpusStore()
    lines = []
    orchestrated = OrchestratedCampaign(config, workers=2, corpus=corpus,
                                        progress=lines.append)
    result = orchestrated.run()
    assert _report_keys(result) == _report_keys(serial_result)
    assert _stat_tuple(result) == _stat_tuple(serial_result)
    # Live stats streamed one line per seed and counted every program.
    assert len(lines) == result.stats.seeds_used
    assert orchestrated.monitor.programs_tested == result.stats.programs_tested
    # Every FN candidate landed in a dedup bucket keyed by
    # (UB type, crash site, sanitizer).
    assert corpus.total_crashes == result.stats.fn_candidates
    assert len(corpus.programs) == result.stats.programs_tested
    if result.stats.fn_candidates:
        assert 0 < corpus.unique_crashes <= result.stats.fn_candidates
        ub_values = {ub.value for ub in config.ub_types}
        for ub_type, _site, sanitizer in corpus.buckets:
            assert ub_type in ub_values
            assert sanitizer in ("asan", "ubsan", "msan")


def test_max_programs_total_truncates_like_serial():
    scale = dict(MODULE_SCALE, max_programs_total=4)
    config = CampaignConfig(**scale)
    serial = FuzzingCampaign(config).run()
    pooled = OrchestratedCampaign(config, workers=2).run()
    assert serial.stats.programs_tested == 4
    assert _report_keys(pooled) == _report_keys(serial)
    assert _stat_tuple(pooled) == _stat_tuple(serial)


def test_pooled_campaign_needs_fork(monkeypatch, config):
    """Pool workers inherit the campaign object, which only ``fork`` does;
    a serial campaign runs on any platform."""
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    with pytest.raises(ValueError, match="fork"):
        OrchestratedCampaign(config, workers=2)
    assert OrchestratedCampaign(config).workers == 1


def test_serial_campaign_parses_each_ub_program_once(monkeypatch):
    """One campaign per process: triage runs on the campaign object whose
    seeds ran, so it finds every UB program's parse in that campaign's
    compilation cache instead of parsing the program again.  Each seed is
    parsed once too: UB generation reads the parse its validation built."""
    real_parse = parser.parse_program
    parses = Counter()

    def counting_parse(source):
        parses[source] += 1
        return real_parse(source)

    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is real_parse:
                    monkeypatch.setattr(module, attr, counting_parse)
    config = CampaignConfig(num_seeds=3, rng_seed=2024,
                            max_programs_per_type=1,
                            opt_levels=("-O0", "-O2"))
    result = OrchestratedCampaign(config).run()
    monkeypatch.undo()
    assert result.bug_reports
    sources = {diff.program.source for diff in result.differential_results}
    assert len(sources) == result.stats.programs_tested
    generator = CsmithGenerator(GeneratorConfig(seed=config.rng_seed))
    seeds = {generator.generate(index).source
             for index in range(config.num_seeds)}
    assert {source: parses[source] for source in sources | seeds} == \
        dict.fromkeys(sources | seeds, 1)


# ---------------------------------------------------------------------------
# Checkpoint / resume
# ---------------------------------------------------------------------------

def test_killed_then_resumed_campaign_matches(tmp_path, monkeypatch, config,
                                             serial_result):
    checkpoint = str(tmp_path / "campaign.json")
    corpus_dir = str(tmp_path / "corpus")

    # Session 1 "dies" after one seed (session cap simulates the kill).
    partial = OrchestratedCampaign(config, workers=2, checkpoint_path=checkpoint,
                                   corpus=corpus_dir,
                                   max_seeds_per_session=1).run()
    assert partial.stats.seeds_used == 1
    snapshot = json.loads(open(checkpoint).read())
    assert list(snapshot["seeds"]) == ["0"]

    # Session 2 resumes and completes with the uninterrupted results.
    resumed = OrchestratedCampaign(config, workers=2, checkpoint_path=checkpoint,
                                   corpus=corpus_dir)
    result = resumed.run()
    assert resumed.resumed_indices == [0]
    assert _report_keys(result) == _report_keys(serial_result)
    assert _stat_tuple(result) == _stat_tuple(serial_result)
    assert result.differential_results == serial_result.differential_results
    # Restored seeds advance the position but not the throughput figures.
    assert resumed.monitor.seeds_restored == 1
    assert resumed.monitor.seeds_done == 2
    assert resumed.monitor.snapshot().seeds_done == 3
    assert "(1 restored)" in resumed.monitor.snapshot().format_line()

    # The resumed session replayed the restored seed into its corpus view,
    # and the database holds each seed exactly once across sessions.
    store = resumed.corpus
    assert store.total_crashes == serial_result.stats.fn_candidates
    assert len(store.programs) == serial_result.stats.programs_tested
    with FindingsDB(store.db_path) as db:
        assert db.ingested_seeds(store.campaign_id) == [0, 1, 2]
        [(programs,)] = db.connection.execute(
            "SELECT COUNT(*) FROM corpus_campaign_programs "
            "WHERE campaign_id = ?", (store.campaign_id,)).fetchall()
    assert programs == serial_result.stats.programs_tested

    # Session 3 is a pure replay: every seed restored, same reports again,
    # and triage reads the restored matrix cells instead of running them.
    trunk_matrix = {(diff.program.source, cell.config,
                     trunk_version(cell.config.compiler))
                    for diff in serial_result.differential_results
                    for cell in diff.cells}
    triage_runs = []
    run_cell = bugs_module.run_cell

    def recording_run_cell(cache, source, cell_config, registry, max_steps,
                           version=None):
        triage_runs.append((source, cell_config, version, len(registry)))
        return run_cell(cache, source, cell_config, registry, max_steps,
                        version=version)

    monkeypatch.setattr(bugs_module, "run_cell", recording_run_cell)
    replay = OrchestratedCampaign(config, checkpoint_path=checkpoint)
    replay_result = replay.run()
    assert replay.resumed_indices == [0, 1, 2]
    assert _report_keys(replay_result) == _report_keys(serial_result)
    assert _stat_tuple(replay_result) == _stat_tuple(serial_result)
    assert replay_result.differential_results == \
        serial_result.differential_results
    full_registry = len(FuzzingCampaign(config).registry)
    assert triage_runs
    assert not [run for run in triage_runs
                if run[:3] in trunk_matrix and run[3] == full_registry]


def test_resumed_campaign_keeps_the_oracle_accuracy(tmp_path, config,
                                                   serial_result):
    """RQ3 reads the restored seeds' silent cells, so a resumed campaign
    drops the same optimization-caused discrepancies as an uninterrupted
    one instead of none."""
    checkpoint = str(tmp_path / "campaign.json")
    OrchestratedCampaign(config, checkpoint_path=checkpoint,
                         max_seeds_per_session=2).run()
    resumed = OrchestratedCampaign(config, checkpoint_path=checkpoint)
    result = resumed.run()
    assert resumed.resumed_indices == [0, 1]
    accuracy = evaluate_oracle_accuracy(serial_result)
    assert accuracy.dropped
    assert evaluate_oracle_accuracy(result) == accuracy


def test_checkpoint_bytes_repeat_run_to_run(tmp_path):
    """One config always writes the same checkpoint bytes: no wall-clock
    figure (such as a seed's duration) lands in a record."""
    config = CampaignConfig(num_seeds=2, rng_seed=5, max_programs_per_type=1,
                            opt_levels=("-O0", "-O2"), triage=False)
    snapshots = []
    for run in range(2):
        path = str(tmp_path / f"campaign-{run}.json")
        OrchestratedCampaign(config, checkpoint_path=path).run()
        with open(path, "rb") as handle:
            snapshots.append(handle.read())
    assert snapshots[0] == snapshots[1]


def test_db_path_must_be_the_corpus_stores_database(tmp_path, config):
    """A fuzzing campaign writes findings only through its corpus store, so
    a ``db_path`` that store does not use is refused, not ignored."""
    store = CorpusStore(root=str(tmp_path / "corpus"))
    with pytest.raises(ValueError, match="findings database"):
        OrchestratedCampaign(config, corpus=store,
                             db_path=str(tmp_path / "other.sqlite"))
    shared = str(tmp_path / "shared.sqlite")
    OrchestratedCampaign(config, corpus=CorpusStore(
        root=str(tmp_path / "corpus-b"), db_path=shared), db_path=shared)


def test_checkpoint_refuses_other_config(tmp_path, config):
    checkpoint_path = str(tmp_path / "campaign.json")
    CampaignCheckpoint(checkpoint_path, config).record(
        SeedBatch(seed_index=0, generated=True))
    other = CampaignConfig(**dict(MODULE_SCALE, rng_seed=6))
    assert config_fingerprint(other) != config_fingerprint(config)
    with pytest.raises(CheckpointMismatch):
        CampaignCheckpoint(checkpoint_path, other).load()


def test_checkpoint_writes_after_every_recorded_seed(tmp_path, config):
    """A killed campaign loses no recorded seed: each ``record`` rewrites
    the snapshot before it returns."""
    path = str(tmp_path / "every.json")
    checkpoint = CampaignCheckpoint(path, config)
    for index in range(3):
        checkpoint.record(SeedBatch(seed_index=index, generated=True))
        assert sorted(CampaignCheckpoint(path, config).load()) == \
            list(range(index + 1))


def test_checkpoint_with_metadata_key_still_loads(tmp_path, config):
    """Snapshots once carried a ``metadata`` key; loading ignores it."""
    path = str(tmp_path / "old.json")
    CampaignCheckpoint(path, config).record(
        SeedBatch(seed_index=0, generated=True))
    with open(path, encoding="utf-8") as handle:
        snapshot = json.load(handle)
    snapshot["metadata"] = {"telemetry": {"cache": {"hits": 1}}}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle)
    assert sorted(CampaignCheckpoint(path, config).load()) == [0]


def test_checkpoint_refuses_version_1(tmp_path, config):
    """Version 1 records kept no cells; no loader reads them."""
    path = str(tmp_path / "old.json")
    CampaignCheckpoint(path, config).record(
        SeedBatch(seed_index=0, generated=True))
    with open(path, encoding="utf-8") as handle:
        snapshot = json.load(handle)
    assert snapshot["version"] == 2
    snapshot["version"] = 1
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle)
    with pytest.raises(CheckpointMismatch,
                       match="unsupported checkpoint version 1"):
        CampaignCheckpoint(path, config).load()


def test_batch_record_leaves_out_the_seed_duration():
    fast = SeedBatch(seed_index=4, generated=True, duration_seconds=0.25)
    slow = SeedBatch(seed_index=4, generated=True, duration_seconds=9.5)
    assert batch_to_record(fast) == batch_to_record(slow)
    assert "duration_seconds" not in batch_to_record(fast)
    assert batch_from_record(batch_to_record(slow)).duration_seconds == 0.0


def test_batch_record_roundtrip_preserves_reports(config, fresh_batches):
    """A checkpoint record restores its batch exactly, cells and
    candidates included, but for the seed's duration and telemetry; so
    restored batches triage to the same reports as fresh ones."""
    batches = fresh_batches
    diffs = [diff for batch in batches for diff in batch.diff_results]
    assert any(diff.fn_candidates for diff in diffs)
    assert any(diff.wrong_report_candidates for diff in diffs)
    restored = [batch_from_record(json.loads(json.dumps(batch_to_record(b))))
                for b in batches]
    for batch, thin in zip(batches, restored):
        assert thin == dataclasses.replace(batch, duration_seconds=0.0,
                                           telemetry=None)
    original = FuzzingCampaign(config).collect(batches)
    replayed = FuzzingCampaign(config).collect(restored)
    assert _report_keys(replayed) == _report_keys(original)
    assert _stat_tuple(replayed) == _stat_tuple(original)


class _ClassRecorder(pickle.Unpickler):
    """Unpickles while recording every ``(module, name)`` it resolves."""

    def __init__(self, data: bytes) -> None:
        super().__init__(io.BytesIO(data))
        self.classes = set()

    def find_class(self, module, name):
        self.classes.add((module, name))
        return super().find_class(module, name)


def test_batches_and_results_keep_no_run(fresh_batches, serial_result):
    """A fresh batch and a finished result hold cells, never a run."""
    batch = fresh_batches[0]
    assert any(diff.fn_candidates for diff in batch.diff_results)
    for kept in (batch, serial_result):
        recorder = _ClassRecorder(pickle.dumps(kept))
        recorder.load()
        assert ("repro.core.differential", "Cell") in recorder.classes
        assert ("repro.vm.errors", "ExecutionResult") not in recorder.classes
        assert ("repro.core.differential", "ConfigOutcome") \
            not in recorder.classes


# ---------------------------------------------------------------------------
# Corpus store
# ---------------------------------------------------------------------------

def test_corpus_ingest_is_idempotent(fresh_batches):
    batch = fresh_batches[0]
    store = CorpusStore()
    store.ingest(batch)
    crashes, programs = store.total_crashes, len(store.programs)
    assert store.ingest(batch) == 0
    assert store.total_crashes == crashes
    assert len(store.programs) == programs


# ---------------------------------------------------------------------------
# Throughput stats
# ---------------------------------------------------------------------------

def test_throughput_monitor_rates_and_eta():
    clock = iter([0.0, 10.0, 20.0]).__next__
    monitor = ThroughputMonitor(seeds_total=2, clock=clock)
    monitor.start()
    first = monitor.observe(SeedBatch(seed_index=0, generated=True,
                                      diff_results=[]))
    assert first.seeds_done == 1 and first.elapsed_seconds == 10.0
    assert first.eta_seconds == 10.0  # one of two seeds done in 10s
    second = monitor.observe(SeedBatch(seed_index=1, generated=True,
                                       diff_results=[]))
    assert second.seeds_done == 2 and second.eta_seconds is None
    assert "seeds 2/2" in second.format_line()


def test_throughput_monitor_resume_rates_ignore_restore_replay():
    """After a resume, rate/ETA must come from freshly-executed work only:
    the wall-clock burned replaying checkpoint-restored batches (loading,
    corpus ingestion) is not execution throughput."""
    # start at t=0; replaying 2 restored batches takes until t=100 (!);
    # then each fresh seed takes 10s.
    clock = iter([0.0, 50.0, 100.0, 110.0, 120.0]).__next__
    monitor = ThroughputMonitor(seeds_total=4, clock=clock)
    monitor.start()
    monitor.note_restored(SeedBatch(seed_index=0, generated=True,
                                    diff_results=[]))
    monitor.note_restored(SeedBatch(seed_index=1, generated=True,
                                    diff_results=[]))
    first = monitor.observe(SeedBatch(seed_index=2, generated=True,
                                      diff_results=[]))
    # Overall campaign position includes the restored seeds ...
    assert first.seeds_done == 3 and first.seeds_restored == 2
    # ... but the per-seed estimate is 10s (fresh), not 110s (wall-clock),
    # so the ETA for the one remaining seed is 10s.
    assert first.elapsed_seconds == 110.0
    assert first.eta_seconds == 10.0
    second = monitor.observe(SeedBatch(seed_index=3, generated=True,
                                       diff_results=[]))
    assert second.seeds_done == 4 and second.eta_seconds is None


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_json_summary(tmp_path, capsys):
    checkpoint = str(tmp_path / "cli.json")
    exit_code = cli_main([
        "--seeds", "2", "--rng-seed", "5", "--max-programs-per-type", "1",
        "--opt-levels=-O0,-O2", "--no-triage", "--quiet", "--json",
        "--checkpoint", checkpoint,
    ])
    assert exit_code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["seeds_used"] == 2
    assert summary["programs_tested"] > 0
    assert summary["bug_reports"] == []  # --no-triage
    assert os.path.exists(checkpoint)

    # Resuming the same checkpoint with a different config is a clean
    # one-line error (exit 2), not a traceback.
    exit_code = cli_main([
        "--seeds", "2", "--rng-seed", "6", "--max-programs-per-type", "1",
        "--opt-levels=-O0,-O2", "--no-triage", "--quiet",
        "--checkpoint", checkpoint,
    ])
    assert exit_code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_bad_inputs(capsys):
    assert cli_main(["--ub-types=not-a-ub"]) == 2
    assert "unknown UB type" in capsys.readouterr().err
    assert cli_main(["--compilers=tcc"]) == 2
    assert "unknown compiler" in capsys.readouterr().err
    assert cli_main(["--opt-levels=-O9"]) == 2
    assert "unknown optimization level" in capsys.readouterr().err


def test_cli_reports_campaign_argument_errors(monkeypatch, capsys):
    """A constructor ValueError of the campaign (here: workers without a
    ``fork`` start method) is a one-line error with exit status 2, not a
    traceback; fuzz and marker mode build the campaign the same way."""
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    for mode in ("fuzz", "markers"):
        assert cli_main(["--mode", mode, "--seeds", "1", "--workers", "2",
                         "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: workers > 1 runs seeds on a 'fork' "
                              "process pool")
