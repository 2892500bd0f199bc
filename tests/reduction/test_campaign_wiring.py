"""Reduction wired through the corpus store, orchestrator and CLI."""

import json

import pytest

from repro.core import CampaignConfig, UBType
from repro.corpusdb import CRASH_KIND
from repro.orchestrator import CorpusStore, OrchestratedCampaign
from repro.orchestrator.cli import main as cli_main
from repro.orchestrator.corpus import signature_for
from repro.analysis import table_reduction_quality
from repro.sanitizers.defects import default_defects

SMALL = dict(num_seeds=1, rng_seed=2024, max_programs_per_type=1,
             opt_levels=("-O0", "-O2"), triage=False)


def test_orchestrated_campaign_persists_reduced_c(tmp_path):
    corpus_dir = tmp_path / "corpus"
    campaign = OrchestratedCampaign(CampaignConfig(**SMALL),
                                    corpus=str(corpus_dir), reduce=True)
    campaign.run()
    assert campaign.reductions
    reduced_files = sorted((corpus_dir / "reduced").glob("*.c"))
    assert len(reduced_files) == len(campaign.reductions)
    store = campaign.corpus
    for record in campaign.reductions:
        key = (record.ub_type, record.crash_site, record.sanitizer)
        stored = store.db.reduction_for(CRASH_KIND, signature_for(key))
        assert stored["campaign_id"] == store.campaign_id
        assert stored["stats"]["reduced_tokens"] \
            < stored["stats"]["original_tokens"]
        exported = corpus_dir / "reduced" / (record.label + ".c")
        assert exported.read_text() == stored["source"] \
            == record.reduced_source


def test_resumed_campaign_restores_reductions_instead_of_rereducing(
        tmp_path, monkeypatch):
    corpus_dir, checkpoint = tmp_path / "corpus", tmp_path / "ck.json"
    config = CampaignConfig(**SMALL)
    first = OrchestratedCampaign(config, corpus=str(corpus_dir),
                                 checkpoint_path=str(checkpoint), reduce=True)
    first.run()
    assert first.reductions

    # Re-running the finished campaign must not invoke the reducer at all.
    import repro.orchestrator.campaign as campaign_module
    reduce_fn_candidate = campaign_module.reduce_fn_candidate

    def explode(*args, **kwargs):  # pragma: no cover - guard
        raise AssertionError("bucket was re-reduced on resume")

    monkeypatch.setattr(campaign_module, "reduce_fn_candidate", explode)
    resumed = OrchestratedCampaign(config, corpus=str(corpus_dir),
                                   checkpoint_path=str(checkpoint),
                                   reduce=True)
    resumed.run()
    expected = [(r.label, r.reduced_tokens, r.reduced_source)
                for r in first.reductions]
    assert [(r.label, r.reduced_tokens, r.reduced_source)
            for r in resumed.reductions] == expected

    # Another campaign on the same database reduces its own
    # representatives instead of inheriting this campaign's reductions.
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return reduce_fn_candidate(*args, **kwargs)

    monkeypatch.setattr(campaign_module, "reduce_fn_candidate", counting)
    other = OrchestratedCampaign(config, corpus=CorpusStore(
        root=str(tmp_path / "other"), db_path=first.corpus.db_path),
        reduce=True)
    other.run()
    assert len(calls) == len(first.reductions)
    assert [(r.label, r.reduced_tokens, r.reduced_source)
            for r in other.reductions] == expected


def test_pooled_campaign_reduces_with_the_campaigns_own_tester():
    """Reduction runs in this process on the campaign object whose seeds
    were merged, so it judges candidates with the campaign's defect
    registry at any worker count.  Under the default registry this
    program's candidates are uninteresting, and a reducer that ignored the
    campaign's registry would hand back the unreduced program."""
    registry = [defect for defect in default_defects()
                if defect.defect_id == "gcc-ubsan-neg-const-mul"]
    config = CampaignConfig(num_seeds=3, rng_seed=5, max_programs_per_type=1,
                            opt_levels=("-O0", "-O2"), triage=False,
                            ub_types=(UBType.INTEGER_OVERFLOW,),
                            defect_registry=registry)
    reduced = {}
    for workers in (1, 2):
        campaign = OrchestratedCampaign(config, workers=workers, reduce=True)
        campaign.run()
        assert campaign.reductions
        assert all(record.reduced_tokens < record.original_tokens
                   for record in campaign.reductions)
        reduced[workers] = [(record.label, record.reduced_source)
                            for record in campaign.reductions]
    assert reduced[2] == reduced[1]


def test_in_memory_corpus_keeps_reduced_source():
    store = CorpusStore()
    campaign = OrchestratedCampaign(CampaignConfig(**SMALL), corpus=store,
                                    reduce=True)
    campaign.run()
    assert campaign.reductions
    record = campaign.reductions[0]
    key = (record.ub_type, record.crash_site, record.sanitizer)
    stored = store.db.reduction_for(CRASH_KIND, signature_for(key))
    assert stored["source"] == record.reduced_source


def test_record_reduction_unknown_bucket_raises():
    store = CorpusStore()
    with pytest.raises(KeyError):
        store.record_reduction(("x", "?", "asan"), "int main() {}")


def test_cli_reduce_json_summary(tmp_path, capsys):
    rc = cli_main(["--seeds", "1", "--rng-seed", "2024",
                   "--max-programs-per-type", "1", "--opt-levels=-O0,-O2",
                   "--no-triage", "--reduce", "--quiet", "--json",
                   "--corpus", str(tmp_path / "corpus")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["reductions"]
    for record in summary["reductions"]:
        assert record["reduced_tokens"] < record["original_tokens"]
        assert record["token_reduction"] > 0


def test_reduction_quality_table_renders():
    from repro.reduction import ReductionRecord

    record = ReductionRecord(label="bucket-a", ub_type="divide-by-zero",
                             crash_site="3:5", sanitizer="ubsan",
                             original_tokens=100, reduced_tokens=25,
                             predicate_evaluations=40, duration_seconds=1.25,
                             reduced_source="int main() {}")
    headers, rows = table_reduction_quality([record])
    assert headers[0] == "Bucket"
    assert rows[0][0] == "bucket-a"
    assert rows[0][3] == "75%"
