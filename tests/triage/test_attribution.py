"""Real-compile probes, bucket attribution and the known-bug patch
database's persistence (kill/resume) guarantees."""

from __future__ import annotations

import types

import pytest

from repro.compilers.versions import all_versions, trunk_version
from repro.corpusdb import CRASH_KIND, FindingsDB, crash_signature, program_digest
from repro.orchestrator.corpus import bucket_key_for, bucket_slug, signature_for
from repro.triage import (
    BisectionError,
    CrashProbe,
    MarkerProbe,
    RevisionBisector,
    attribute_bucket,
    bisect_bucket,
    exhaustive_edges,
    probe_budget,
)

#: A dead branch only constant propagation can eliminate: the gcc constprop
#: optimizer defect (window [11, 12) at -O2) makes its marker reappear.
DEAD_BRANCH_SOURCE = """\
void __ubfm_0_(void);
int main(void) {
  int x = 0;
  if (x) {
    __ubfm_0_();
  }
  return 0;
}
"""


def _confirmed_candidate(small_campaign):
    """An FN candidate whose triaged defect is open and pre-trunk."""
    from repro.core import BugTriager
    triager = BugTriager()
    for candidate in small_campaign.fn_candidates:
        report = triager.triage_fn_candidate(candidate)
        if (report.defect is not None and report.defect.fixed_version is None
                and report.defect.introduced_version
                < trunk_version(report.compiler)):
            return candidate, report
    pytest.skip("campaign found no open pre-trunk defect")


def test_marker_probe_recovers_the_constprop_defect_window():
    probe = MarkerProbe(DEAD_BRANCH_SOURCE, "__ubfm_0_", "gcc", "-O2")
    # Marker retained (bad) exactly while constprop is broken at -O2.
    bisector = RevisionBisector("gcc", versions=range(8, trunk_version("gcc") + 1))
    result = bisector.bisect(probe, 11, relevant=probe.relevant)
    assert (result.introduced, result.fixed) == (11, 12)
    assert result.responsible == "optimizer-defect-introduced:gcc-11:constprop"
    assert result.fixed_event is not None
    assert result.fixed_event.event_id == "optimizer-defect-fixed:gcc-12:constprop"
    assert result.probes <= probe_budget(len(bisector.versions))


def test_marker_probe_is_bad_before_the_pass_lands():
    # Before constprop exists (gcc 7) the branch is retained too: the
    # full-timeline probe is non-monotone, which is exactly why
    # attribution narrows the range to the pass-introduction onwards.
    probe = MarkerProbe(DEAD_BRANCH_SOURCE, "__ubfm_0_", "gcc", "-O2")
    assert probe(7)
    assert not probe(10)
    assert probe(11)
    assert not probe(12)


def test_crash_probe_recovers_a_seeded_defect_window(small_campaign):
    candidate, report = _confirmed_candidate(small_campaign)
    defect = report.defect
    config = candidate.missing.config
    probe = CrashProbe(candidate.program.source, candidate.program.ub_type,
                       config.compiler, config.sanitizer, config.opt_level,
                       registry=[defect])
    versions = all_versions(config.compiler)
    bisector = RevisionBisector(config.compiler)
    result = bisector.bisect(probe, trunk_version(config.compiler),
                             relevant=probe.relevant)
    # With the responsible defect as the whole registry, the bisected
    # window and the linear sweep agree; the defect is open, so the
    # finding still reproduces on trunk.
    assert result.fixed is None
    assert result.introduced >= defect.introduced_version
    assert (result.introduced, result.fixed) == exhaustive_edges(
        probe, versions, trunk_version(config.compiler))
    assert result.probes <= probe_budget(len(versions))


@pytest.fixture()
def attributed_db(tmp_path, small_campaign):
    """A file-backed findings DB holding one crash bucket + attribution."""
    candidate, report = _confirmed_candidate(small_campaign)
    key = bucket_key_for(candidate)
    path = tmp_path / "findings.sqlite"
    with FindingsDB(path) as db:
        campaign = db.open_campaign("camp-a")
        source = candidate.program.source
        db.ingest_delta(campaign, programs=[{
            "program_id": "s00000-p000", "seed_index": 0, "position": 0,
            "source": source, "ub_type": key[0], "generator": "ubfuzz",
        }], hits=[{
            "kind": CRASH_KIND, "signature": signature_for(key),
            "subject": key[0], "crash_site": key[1], "sanitizer": key[2],
            "slug": bucket_slug(key), "program_id": "s00000-p000",
            "program_digest": program_digest(source),
            "config": candidate.missing.config.label,
        }])
        [bucket] = db.query_buckets()
        attribution = attribute_bucket(db, bucket, campaign_id=campaign)
    return path, key, attribution


def test_attribution_survives_kill_and_resume(attributed_db):
    path, key, attribution = attributed_db
    # Reopen the database file cold, as a resumed campaign would.
    with FindingsDB(path) as db:
        [bug] = db.known_bugs()
        assert bug["kind"] == CRASH_KIND
        assert bug["signature"] == signature_for(key)
        assert bug["responsible"] == attribution.responsible
        assert bug["introduced_version"] == attribution.result.introduced
        assert bug["fixed_version"] == attribution.result.fixed
        assert bug["probes"] == attribution.result.probes
        assert bug["slug"] == bucket_slug(key)
        index = db.known_bug_index()
        assert (CRASH_KIND, signature_for(key)) in index
        assert db.summary()["known_bugs"] == 1
        assert db.summary()["attributions"] == 1


def test_reattribution_is_idempotent(attributed_db):
    path, key, attribution = attributed_db
    with FindingsDB(path) as db:
        [bucket] = db.query_buckets()
        again = attribute_bucket(db, bucket)
        assert again.responsible == attribution.responsible
        assert len(db.known_bugs()) == 1


def test_suppression_ledger_keeps_max_hits(attributed_db):
    path, key, _ = attributed_db
    entry = {"kind": CRASH_KIND, "signature": signature_for(key), "hits": 2}
    with FindingsDB(path) as db:
        campaign = db.open_campaign("camp-b")
        assert db.record_suppressions(campaign, [entry]) == 1
        # A resumed flush re-ledgers the cumulative count: MAX, not SUM.
        assert db.record_suppressions(campaign, [dict(entry, hits=3)]) == 1
        assert db.record_suppressions(campaign, [dict(entry, hits=1)]) == 1
        [line] = db.suppression_ledger(campaign)
        assert line["hits"] == 3
        assert line["campaign_key"] == "camp-b"
        # Unknown signatures are ignored, not mis-ledgered.
        assert db.record_suppressions(
            campaign, [{"kind": CRASH_KIND, "signature": "[\"nope\"]",
                        "hits": 1}]) == 0


def test_bisect_bucket_without_stored_program_raises(tmp_path):
    with FindingsDB(tmp_path / "empty.sqlite") as db:
        campaign = db.open_campaign("camp-a")
        signature = crash_signature("buffer-overflow-array", "3:7", "asan")
        db.ingest_delta(campaign, hits=[{
            "kind": CRASH_KIND, "signature": signature,
            "subject": "buffer-overflow-array", "crash_site": "3:7",
            "sanitizer": "asan", "slug": "buffer-overflow-array-3_7-asan",
            "program_id": "s00000-p000", "program_digest": "0" * 16,
            "config": "gcc -O2 -fsanitize=asan",
        }])
        [bucket] = db.query_buckets()
        with pytest.raises(BisectionError):
            bisect_bucket(db, bucket)


def test_campaign_auto_suppresses_attributed_buckets(attributed_db,
                                                     small_campaign):
    """The acceptance loop in miniature: a store opened against a DB that
    already attributes a signature reports the bucket as suppressed and
    ledgers the re-find instead of filing it as new."""
    from repro.core.fuzzer import SeedBatch
    from repro.orchestrator.corpus import CorpusStore
    path, key, attribution = attributed_db
    candidate, _ = _confirmed_candidate(small_campaign)
    diff = types.SimpleNamespace(program=candidate.program,
                                 fn_candidates=[candidate],
                                 wrong_report_candidates=[], cells=[])
    batch = SeedBatch(seed_index=0, generated=True, diff_results=[diff])
    store = CorpusStore(db_path=path, campaign_key="camp-rerun")
    try:
        store.ingest(batch)
        assert store.suppressed_buckets == 1
        assert store.new_global_buckets == 0
        assert store.recurrent_buckets == 0
        [line] = store.suppressions()
        assert line["suppressed_by"] == attribution.responsible
        assert line["slug"] == bucket_slug(key)
        assert store.summary()["suppressed_buckets"] == 1
        store.flush()
    finally:
        store.close()
    with FindingsDB(path) as db:
        [ledger] = db.suppression_ledger()
        assert ledger["campaign_key"] == "camp-rerun"
        assert ledger["hits"] == 1
