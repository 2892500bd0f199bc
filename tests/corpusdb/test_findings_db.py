"""Unit tests for the findings database: schema, idempotent ingestion,
cross-campaign recurrence, query filters and marker persistence."""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.corpusdb import (
    CRASH_KIND,
    FindingsDB,
    crash_signature,
    decompress_source,
    marker_signature,
    program_digest,
    signature_json,
)
from repro.corpusdb.db import CORPUS_SCHEMA_VERSION, compress_source

SOURCE = "int main() { return 0; }\n"


def _hit(signature: str, program_id: str = "s00000-p000",
         config: str = "gcc -O2 -fsanitize=asan", **columns) -> dict:
    record = {"kind": CRASH_KIND, "signature": signature,
              "subject": "buffer-overflow-array", "crash_site": "3:7",
              "sanitizer": "asan", "slug": "buffer-overflow-array-3_7-asan",
              "program_id": program_id, "program_digest": program_digest(SOURCE),
              "config": config}
    record.update(columns)
    return record


def _program(program_id: str = "s00000-p000", source: str = SOURCE) -> dict:
    return {"program_id": program_id, "seed_index": 0, "position": 0,
            "source": source, "ub_type": "buffer-overflow-array",
            "generator": "ubfuzz"}


def _outcome(source: str = SOURCE, compiler: str = "gcc",
             pipeline: str = "-O2", sanitizer: str = "asan") -> dict:
    return {"program_digest": program_digest(source), "compiler": compiler,
            "version": "", "pipeline": pipeline, "sanitizer": sanitizer,
            "status": "detected", "detail": ""}


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def test_signature_helpers_are_canonical_json():
    signature = crash_signature("buffer-overflow-array", "3:7", "asan")
    assert json.loads(signature) == ["crash", "buffer-overflow-array",
                                     "3:7", "asan"]
    marker = marker_signature("missed-optimization", "gcc", "main",
                              "if-then", "__ubfm_1_", "constant-fold")
    assert json.loads(marker)[0] == "missed-optimization"
    # Compact separators: a signature is a dict key, not pretty output.
    assert ", " not in signature_json(["a", "b"])


def test_program_compression_roundtrip():
    blob = compress_source(SOURCE)
    assert blob != SOURCE.encode("utf-8")
    assert decompress_source(blob) == SOURCE
    assert program_digest(SOURCE) == program_digest(SOURCE)
    assert program_digest(SOURCE) != program_digest(SOURCE + " ")


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def test_ingest_delta_roundtrip_and_idempotency():
    with FindingsDB() as db:
        campaign = db.open_campaign("camp-a", fingerprint="f" * 16)
        signature = crash_signature("buffer-overflow-array", "3:7", "asan")
        ops = db.ingest_delta(campaign, seeds=[0], programs=[_program()],
                              hits=[_hit(signature)], outcomes=[_outcome()])
        assert ops > 0
        # Re-applying the identical delta (a resume re-flushing
        # unacknowledged work) must not double-count anything.
        before = db.summary()
        bucket = db.find_bucket(CRASH_KIND, signature)
        db.ingest_delta(campaign, seeds=[0], programs=[_program()],
                        hits=[_hit(signature)], outcomes=[_outcome()])
        assert db.summary() == before
        assert db.find_bucket(CRASH_KIND, signature)["count"] == bucket["count"] == 1
        assert db.get_program(program_digest(SOURCE)) == SOURCE
        assert db.ingested_seeds(campaign) == [0]


def test_empty_delta_is_free():
    with FindingsDB() as db:
        campaign = db.open_campaign("camp-a")
        assert db.ingest_delta(campaign) == 0


def test_open_campaign_is_idempotent_by_key():
    with FindingsDB() as db:
        first = db.open_campaign("camp-a", fingerprint="aaaa")
        again = db.open_campaign("camp-a", fingerprint="bbbb")
        assert first == again
        assert len(db.campaigns()) == 1
        assert db.campaign_id("camp-a") == first
        assert db.campaign_id("missing") is None


# ---------------------------------------------------------------------------
# Cross-campaign recurrence
# ---------------------------------------------------------------------------

def test_recurrence_tracks_first_and_last_campaign():
    with FindingsDB() as db:
        signature = crash_signature("buffer-overflow-array", "3:7", "asan")
        first = db.open_campaign("camp-a")
        db.ingest_delta(first, programs=[_program()],
                        hits=[_hit(signature)], now=100.0)
        second = db.open_campaign("camp-b")
        db.ingest_delta(second, programs=[_program("s00001-p000")],
                        hits=[_hit(signature, "s00001-p000")], now=200.0)
        bucket = db.find_bucket(CRASH_KIND, signature)
        assert bucket["count"] == 2
        assert bucket["first_campaign"] == first
        assert bucket["first_campaign_key"] == "camp-a"
        assert bucket["last_campaign"] == second
        assert (bucket["first_seen_at"], bucket["last_seen_at"]) == (100.0, 200.0)

        rows = {row["key"]: row for row in db.campaign_recurrence()}
        assert rows["camp-a"]["new_buckets"] == 1
        assert rows["camp-a"]["recurrent_buckets"] == 0
        assert rows["camp-b"]["new_buckets"] == 0
        assert rows["camp-b"]["recurrent_buckets"] == 1


def _outcome_cells(db: FindingsDB) -> list:
    """Every ``corpus_outcomes`` row as its (program digest, compiler,
    version, pipeline, sanitizer) cell."""
    rows = db.connection.execute(
        "SELECT program_digest, compiler, version, pipeline, sanitizer "
        "FROM corpus_outcomes")
    return [tuple(row) for row in rows]


def test_ingest_writes_one_row_per_outcome_cell():
    with FindingsDB() as db:
        campaign = db.open_campaign("camp-a")
        db.ingest_delta(campaign, outcomes=[
            _outcome(), _outcome(compiler="llvm", sanitizer="ubsan")])
        assert sorted(_outcome_cells(db)) == [
            (program_digest(SOURCE), "gcc", "", "-O2", "asan"),
            (program_digest(SOURCE), "llvm", "", "-O2", "ubsan")]


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

@pytest.fixture()
def populated_db():
    db = FindingsDB()
    crash_sig = crash_signature("buffer-overflow-array", "3:7", "asan")
    other_sig = crash_signature("use-after-free", "9:1", "asan")
    first = db.open_campaign("camp-a")
    db.ingest_delta(first, programs=[_program()],
                    hits=[_hit(crash_sig)], outcomes=[_outcome()], now=100.0)
    second = db.open_campaign("camp-b")
    db.ingest_delta(second, programs=[_program("s00002-p000")], hits=[
        _hit(crash_sig, "s00002-p000"),
        _hit(other_sig, "s00002-p000",
             config="llvm -O2 -fsanitize=asan",
             subject="use-after-free", crash_site="9:1",
             slug="use-after-free-9_1-asan"),
    ], now=200.0)
    yield db
    db.close()


def test_query_filters_compose(populated_db):
    db = populated_db
    assert len(db.query_buckets()) == 2
    assert len(db.query_buckets(kind=CRASH_KIND)) == 2
    assert len(db.query_buckets(kind="missed-optimization")) == 0
    [row] = db.query_buckets(bucket="use-after-free")
    assert row["slug"] == "use-after-free-9_1-asan"
    # Compiler matches via hit configs (crash buckets are cross-compiler).
    assert len(db.query_buckets(compiler="llvm")) == 1
    assert len(db.query_buckets(compiler="gcc")) == 1
    # since: only buckets last seen at/after the stamp.
    assert len(db.query_buckets(since=150.0)) == 2
    assert len(db.query_buckets(since=250.0)) == 0
    # campaign: camp-a never hit the use-after-free bucket.
    assert len(db.query_buckets(campaign="camp-a")) == 1
    assert len(db.query_buckets(campaign="camp-b")) == 2


def test_query_rows_carry_recurrence_columns(populated_db):
    [row] = populated_db.query_buckets(bucket="buffer-overflow")
    assert row["campaigns"] == 2
    assert row["first_campaign_key"] == "camp-a"
    assert row["last_campaign_key"] == "camp-b"
    assert row["reduced"] == 0


def test_bucket_digests_in_first_hit_order(populated_db):
    [row] = populated_db.query_buckets(bucket="buffer-overflow")
    digests = populated_db.bucket_digests(row["id"])
    assert digests == [program_digest(SOURCE)]


def test_reduction_roundtrip():
    with FindingsDB() as db:
        signature = crash_signature("buffer-overflow-array", "3:7", "asan")
        campaign = db.open_campaign("camp-a")
        db.ingest_delta(campaign, hits=[_hit(signature)])
        db.ingest_delta(campaign, reductions=[{
            "kind": CRASH_KIND, "signature": signature,
            "source": "int main(){}\n", "stats": {"tokens": 4}}])
        stored = db.reduction_for(CRASH_KIND, signature)
        assert stored == {"source": "int main(){}\n", "stats": {"tokens": 4},
                          "campaign_id": campaign}
        [row] = db.query_buckets()
        assert row["reduced"] == 1
        # A reduction for a signature never ingested is dropped, not an error.
        ops = db.ingest_delta(campaign, reductions=[{
            "kind": CRASH_KIND, "signature": "[\"crash\",\"nope\"]",
            "source": "x", "stats": {}}])
        assert db.reduction_for(CRASH_KIND, "[\"crash\",\"nope\"]") is None


# ---------------------------------------------------------------------------
# Marker campaigns
# ---------------------------------------------------------------------------

class _FakeMarker:
    function, context, name = "main", "if-then", "__ubfm_1_"


class _FakeFinding:
    kind = "missed-optimization"
    compiler = "gcc"
    opt_level = "-O2"
    version = 13
    responsible_pass = "constant-fold"
    seed_index = 0
    source = SOURCE
    marker = _FakeMarker()
    bucket_slug = "missed-optimization-gcc-main-if-then-ubfm1-constant-fold"

    def describe(self) -> str:
        return "marker __ubfm_1_ survived -O2"


class _FakeBucket:
    representative = _FakeFinding()


class _FakeResult:
    buckets = {"k": _FakeBucket()}


def test_marker_ingest_is_idempotent():
    with FindingsDB() as db:
        db.ingest_marker_result("markers-abc", _FakeResult(),
                                fingerprint="abc")
        before = db.summary()
        db.ingest_marker_result("markers-abc", _FakeResult(),
                                fingerprint="abc")
        assert db.summary() == before
        [row] = db.query_buckets(kind="missed-optimization")
        assert row["responsible_pass"] == "constant-fold"
        assert row["compiler"] == "gcc"
        # The marker outcome occupies its (program, compiler, version,
        # pipeline) cell like any crash survey outcome.
        assert (program_digest(SOURCE), "gcc", "13", "-O2",
                "") in _outcome_cells(db)



# ---------------------------------------------------------------------------
# File databases
# ---------------------------------------------------------------------------

def test_file_database_survives_reopen(tmp_path):
    path = str(tmp_path / "findings.sqlite")
    signature = crash_signature("buffer-overflow-array", "3:7", "asan")
    with FindingsDB(path) as db:
        campaign = db.open_campaign("camp-a")
        db.ingest_delta(campaign, seeds=[0], programs=[_program()],
                        hits=[_hit(signature)])
        before = db.summary()
    with FindingsDB(path) as db:
        assert db.summary() == before
        assert db.campaign_id("camp-a") == campaign
        assert db.ingested_seeds(campaign) == [0]
        assert db.find_bucket(CRASH_KIND, signature)["count"] == 1
        assert db.get_program(program_digest(SOURCE)) == SOURCE


def test_file_database_records_its_schema_version(tmp_path):
    """The version lives in ``corpus_meta``, where existing files carry it."""
    path = str(tmp_path / "findings.sqlite")
    with FindingsDB(path) as db:
        assert db.schema_version() == CORPUS_SCHEMA_VERSION
    conn = sqlite3.connect(path)
    try:
        [(value,)] = conn.execute(
            "SELECT value FROM corpus_meta WHERE key = 'schema_version'")
    finally:
        conn.close()
    assert int(value) == CORPUS_SCHEMA_VERSION


def _set_recorded_version(path: str, version: int) -> None:
    conn = sqlite3.connect(path)
    try:
        conn.execute("UPDATE corpus_meta SET value = ? "
                     "WHERE key = 'schema_version'", (str(version),))
        conn.commit()
    finally:
        conn.close()


def test_opening_an_older_file_upgrades_it_in_place(tmp_path):
    path = str(tmp_path / "findings.sqlite")
    with FindingsDB(path) as db:
        db.ingest_delta(db.open_campaign("camp-a"), programs=[_program()])
    _set_recorded_version(path, CORPUS_SCHEMA_VERSION - 1)
    with FindingsDB(path) as db:
        assert db.schema_version() == CORPUS_SCHEMA_VERSION
        assert db.summary()["programs"] == 1
    # A file some newer release wrote keeps its version: no downgrade.
    _set_recorded_version(path, CORPUS_SCHEMA_VERSION + 1)
    with FindingsDB(path) as db:
        assert db.schema_version() == CORPUS_SCHEMA_VERSION + 1
