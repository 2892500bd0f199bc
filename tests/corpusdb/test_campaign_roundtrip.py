"""End-to-end findings-database behavior over real (small) campaigns:
checkpoint/resume query equivalence (session cap and hard kill), serial vs
parallel DB identity, findings independent of what a shared database holds,
and the query CLI round-trip."""

from __future__ import annotations

import json
import multiprocessing
import os
import sqlite3

import pytest

from repro.core import CampaignConfig
from repro.corpusdb import CRASH_KIND, FindingsDB
from repro.orchestrator import CorpusStore, OrchestratedCampaign
from repro.orchestrator.corpus import signature_for
from repro.orchestrator.cli import main as cli_main

MODULE_SCALE = dict(num_seeds=3, rng_seed=5, max_programs_per_type=1,
                    opt_levels=("-O0", "-O2"))

#: Columns that legitimately differ between equivalent runs: row ids,
#: wall-clock stamps, and campaign identities (the corpus directory path).
VOLATILE = frozenset({"id", "first_seen_at", "last_seen_at",
                      "first_campaign_key", "last_campaign_key"})


def _config() -> CampaignConfig:
    return CampaignConfig(**MODULE_SCALE)


def _normalized_buckets(db_path: str, **filters) -> bytes:
    """The query result set as canonical bytes, volatile columns dropped —
    'byte-identical' comparisons between equivalent campaigns."""
    with FindingsDB(db_path) as db:
        rows = db.query_buckets(**filters)
    rows = [{key: value for key, value in row.items() if key not in VOLATILE}
            for row in rows]
    rows.sort(key=lambda row: (row["kind"], row["signature"]))
    return json.dumps(rows, sort_keys=True).encode("utf-8")


def _outcome_rows(db_path: str) -> list:
    with FindingsDB(db_path) as db:
        rows = db.connection.execute(
            "SELECT program_digest, compiler, version, pipeline, sanitizer, "
            "status FROM corpus_outcomes "
            "ORDER BY program_digest, compiler, version, pipeline, sanitizer")
        return [dict(row) for row in rows]


def _normalized_outcomes(db_path: str) -> bytes:
    return json.dumps(_outcome_rows(db_path)).encode("utf-8")


@pytest.fixture(scope="module")
def baseline(tmp_path_factory) -> OrchestratedCampaign:
    """One uninterrupted serial campaign with a persistent corpus DB."""
    corpus_dir = str(tmp_path_factory.mktemp("baseline") / "corpus")
    campaign = OrchestratedCampaign(_config(), corpus=corpus_dir)
    campaign.run()
    return campaign


@pytest.fixture(scope="module")
def baseline_dir(baseline) -> str:
    return baseline.corpus.root


def _db(corpus_dir: str) -> str:
    return os.path.join(corpus_dir, CorpusStore.DB_NAME)


# ---------------------------------------------------------------------------
# Checkpoint/resume equivalence (crash mode)
# ---------------------------------------------------------------------------

def test_killed_and_resumed_campaign_yields_identical_query_set(
        tmp_path, baseline, baseline_dir):
    """Stop after every seed, resume, and the final ``query`` result set is
    byte-identical to the uninterrupted run — and so is the corpus view the
    last session rebuilt by replaying the checkpointed seeds."""
    checkpoint = str(tmp_path / "campaign.json")
    corpus_dir = str(tmp_path / "corpus")
    sessions = 0
    while True:
        campaign = OrchestratedCampaign(_config(), checkpoint_path=checkpoint,
                                        corpus=corpus_dir,
                                        max_seeds_per_session=1)
        result = campaign.run()
        sessions += 1
        if result.stats.seeds_used == MODULE_SCALE["num_seeds"]:
            break
        assert sessions <= MODULE_SCALE["num_seeds"]
    assert sessions == MODULE_SCALE["num_seeds"]
    assert _normalized_buckets(_db(corpus_dir)) == \
        _normalized_buckets(_db(baseline_dir))
    assert _normalized_outcomes(_db(corpus_dir)) == \
        _normalized_outcomes(_db(baseline_dir))
    assert campaign.corpus.summary() == baseline.corpus.summary()


def _run_until_second_seed(checkpoint: str, corpus_dir: str) -> None:
    """Child body: die like ``kill -9`` once the second seed completes.

    ``os._exit`` skips every ``finally`` and ``atexit`` hook, so whatever
    the campaign had not committed by then is lost, as in a real kill."""
    lines = []

    def progress(line: str) -> None:
        lines.append(line)
        if len(lines) == 2:
            os._exit(0)

    OrchestratedCampaign(_config(), checkpoint_path=checkpoint,
                         corpus=corpus_dir, progress=progress).run()
    os._exit(1)  # the campaign finished without being killed


def test_hard_killed_campaign_resumes_to_the_uninterrupted_database(
        tmp_path, baseline, baseline_dir):
    """A hard kill after two seeds loses nothing the checkpoint recorded:
    the resumed campaign ends with the uninterrupted database and view."""
    checkpoint = str(tmp_path / "campaign.json")
    corpus_dir = str(tmp_path / "corpus")
    child = multiprocessing.get_context("fork").Process(
        target=_run_until_second_seed, args=(checkpoint, corpus_dir))
    child.start()
    child.join(timeout=300)
    if child.is_alive():  # pragma: no cover - a hung campaign
        child.kill()
        child.join()
    assert child.exitcode == 0

    # Every seed the checkpoint calls done is already in the database,
    # outcome cells included.
    with open(checkpoint, encoding="utf-8") as handle:
        done = sorted(int(index) for index in json.load(handle)["seeds"])
    assert done == [0, 1]
    with FindingsDB(_db(corpus_dir)) as db:
        campaign_id = db.campaign_id(os.path.abspath(corpus_dir))
        assert db.ingested_seeds(campaign_id) == done
        digests = {row["digest"] for row in db.connection.execute(
            "SELECT digest FROM corpus_campaign_programs "
            "WHERE campaign_id = ?", (campaign_id,))}
    expected = [row for row in _outcome_rows(_db(baseline_dir))
                if row["program_digest"] in digests]
    assert digests and _outcome_rows(_db(corpus_dir)) == expected

    resumed = OrchestratedCampaign(_config(), checkpoint_path=checkpoint,
                                   corpus=corpus_dir)
    resumed.run()
    assert resumed.resumed_indices == done
    assert _normalized_buckets(_db(corpus_dir)) == \
        _normalized_buckets(_db(baseline_dir))
    assert _normalized_outcomes(_db(corpus_dir)) == \
        _normalized_outcomes(_db(baseline_dir))
    assert resumed.corpus.summary() == baseline.corpus.summary()


def test_serial_and_parallel_produce_identical_databases(
        tmp_path, baseline_dir):
    corpus_dir = str(tmp_path / "corpus")
    OrchestratedCampaign(_config(), workers=2, corpus=corpus_dir).run()
    assert _normalized_buckets(_db(corpus_dir)) == \
        _normalized_buckets(_db(baseline_dir))
    assert _normalized_outcomes(_db(corpus_dir)) == \
        _normalized_outcomes(_db(baseline_dir))


# ---------------------------------------------------------------------------
# Checkpoint/resume equivalence (marker mode)
# ---------------------------------------------------------------------------

def test_marker_reingest_yields_identical_query_set(tmp_path):
    """Marker campaigns have no checkpoint; their resume story is the
    idempotent re-ingest — applying a result twice equals applying once."""
    from repro.markers.engine import MarkerCampaignConfig, MarkerEngine
    config = MarkerCampaignConfig(num_seeds=2, rng_seed=5)
    result = MarkerEngine(config).run()
    once, twice = str(tmp_path / "once.sqlite"), str(tmp_path / "twice.sqlite")
    with FindingsDB(once) as db:
        db.ingest_marker_result("markers-x", result)
    with FindingsDB(twice) as db:
        db.ingest_marker_result("markers-x", result)
        db.ingest_marker_result("markers-x", result)
    assert _normalized_buckets(once) == _normalized_buckets(twice)
    assert _normalized_outcomes(once) == _normalized_outcomes(twice)


# ---------------------------------------------------------------------------
# Cross-campaign dedup and suppression
# ---------------------------------------------------------------------------

def _filed(result) -> tuple:
    """What a campaign files: its bug reports and its FN candidates."""
    reports = [(report.bug_id, report.affected_opt_levels,
                report.affected_versions) for report in result.bug_reports]
    candidates = [(c.program.source, c.detecting.config, c.missing.config,
                   c.verdict.crash_site, c.verdict.reason)
                  for c in result.fn_candidates]
    return reports, candidates


def test_campaign_files_the_same_findings_whatever_its_db_holds(
        tmp_path, baseline, baseline_dir):
    """A wider campaign over the database a narrower one filled runs its
    whole matrix: it files what it files on a fresh database, and the
    shared database only changes how its buckets count (recurrent, or
    suppressed by a recorded attribution)."""
    shared = str(tmp_path / "shared.sqlite")
    with sqlite3.connect(_db(baseline_dir)) as source, \
            sqlite3.connect(shared) as copy:
        source.backup(copy)
    attributed = sorted(baseline.corpus.buckets)[0]
    with FindingsDB(shared) as db:
        db.record_attribution(CRASH_KIND, signature_for(attributed),
                              responsible="known-event")

    wider = CampaignConfig(**dict(MODULE_SCALE,
                                  opt_levels=("-O0", "-O2", "-O3")))
    over_shared = OrchestratedCampaign(wider, corpus=CorpusStore(
        root=str(tmp_path / "over-shared"), db_path=shared))
    on_fresh = OrchestratedCampaign(wider, corpus=str(tmp_path / "fresh"))
    filed = _filed(over_shared.run())
    assert filed == _filed(on_fresh.run())
    assert filed[0] and filed[1]

    corpus = over_shared.corpus
    assert set(corpus.buckets) == set(on_fresh.corpus.buckets)
    assert on_fresh.corpus.new_global_buckets == len(corpus.buckets)
    assert corpus.suppressed_buckets == 1
    assert corpus.buckets[attributed].suppressed_by == "known-event"
    recurrent = set(corpus.buckets) & set(baseline.corpus.buckets)
    assert corpus.recurrent_buckets == len(recurrent) - 1 > 0
    assert corpus.new_global_buckets == len(corpus.buckets) - len(recurrent)
    for key in recurrent:
        assert corpus.buckets[key].first_seen["campaign"] == baseline_dir


# ---------------------------------------------------------------------------
# Query CLI round-trip
# ---------------------------------------------------------------------------

def test_query_round_trip(baseline_dir, capsys):
    db_path = _db(baseline_dir)
    with FindingsDB(db_path) as db:
        [live] = db.query_buckets(bucket="integer-overflow-19_42")
    assert cli_main(["query", "--db", db_path,
                     "--bucket", "integer-overflow-19_42", "--json"]) == 0
    [queried] = json.loads(capsys.readouterr().out)["buckets"]
    assert queried["slug"] == live["slug"]
    assert queried["count"] == live["count"]

    assert cli_main(["query", "--db", db_path, "--kind", CRASH_KIND,
                     "--compiler", "gcc", "--since", "2000-01-01"]) == 0
    out = capsys.readouterr().out
    assert "gcc" in out or "Bucket" in out
    assert "database:" in out


def test_cli_db_holds_the_campaigns_findings(baseline_dir, tmp_path, capsys):
    """``--db PATH`` moves the findings database out of the corpus
    directory and changes nothing else: the file at PATH holds the buckets
    the default ``<corpus>/corpus.sqlite`` does for the same config."""
    corpus = tmp_path / "corpus"
    db_path = str(tmp_path / "shared" / "findings.sqlite")
    assert cli_main(["--seeds", "3", "--rng-seed", "5",
                     "--max-programs-per-type", "1", "--opt-levels=-O0,-O2",
                     "--corpus", str(corpus), "--db", db_path,
                     "--quiet", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert not os.path.exists(_db(str(corpus)))
    assert _normalized_buckets(db_path) == _normalized_buckets(
        _db(baseline_dir))
    with FindingsDB(db_path) as db:
        assert db.summary()["programs"] == summary["corpus"]["programs"]
        assert [row["key"] for row in db.campaigns()] == [
            os.path.abspath(str(corpus))]


def test_query_cli_error_paths(tmp_path, capsys):
    missing = str(tmp_path / "missing.sqlite")
    assert cli_main(["query", "--db", missing]) == 2
    assert "does not exist" in capsys.readouterr().err
    db_path = str(tmp_path / "empty.sqlite")
    FindingsDB(db_path).close()
    assert cli_main(["query", "--db", db_path, "--since", "not-a-date"]) == 2
    assert "--since" in capsys.readouterr().err
    assert cli_main(["query", "--db", db_path]) == 0
    assert "no matching buckets" in capsys.readouterr().out
