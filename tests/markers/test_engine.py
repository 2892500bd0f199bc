"""Tests for the marker differential engine and its orchestrator wiring."""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro.cdsl import parser, sema
from repro.markers import (
    MISSED_OPTIMIZATION,
    REGRESSION,
    UNSOUND_ELIMINATION,
    MarkerCampaignConfig,
    MarkerEngine,
    MarkerPlanter,
)
from repro.optim.pipelines import effective_pass_names
from repro.orchestrator import OrchestratedCampaign
from repro.orchestrator.cli import main as cli_main
from repro.seedgen import CsmithGenerator, GeneratorConfig

SMALL = dict(num_seeds=2, rng_seed=7,
             versions={"gcc": [10, 11, 12, 14], "llvm": [13, 14, 16, 18]})


@pytest.fixture(scope="module")
def small_result():
    return MarkerEngine(MarkerCampaignConfig(**SMALL)).run()


def _comparable(result):
    """Everything that must be bit-identical between serial and parallel."""
    return (
        sorted(result.buckets),
        {key: (bucket.representative, bucket.count,
               tuple(bucket.opt_levels), tuple(sorted(bucket.versions)))
         for key, bucket in result.buckets.items()},
        {label: (s.planted, s.retained, s.dead_retained, s.pipeline)
         for label, s in result.survival.items()},
        (result.stats.seeds_used, result.stats.markers_planted,
         result.stats.live_markers, result.stats.configs_surveyed,
         result.stats.raw_findings, result.stats.findings_by_kind),
    )


def test_engine_finds_missed_optimizations(small_result):
    missed = small_result.findings_of_kind(MISSED_OPTIMIZATION)
    assert missed, "generated seeds always contain dynamically-dead branches"
    for finding in missed:
        assert not finding.live
        assert finding.opt_level in ("-O2", "-O3")
        assert finding.responsible_pass != "unknown"
        assert finding.marker.context != "fn-entry"


def test_engine_never_reports_unsound_eliminations(small_result):
    assert not small_result.findings_of_kind(UNSOUND_ELIMINATION)


def test_regressions_point_at_adjacent_releases(small_result):
    for finding in small_result.findings_of_kind(REGRESSION):
        assert finding.prev_version is not None
        assert finding.prev_version < finding.version


def test_survival_accounting_is_consistent(small_result):
    for survival in small_result.survival.values():
        assert 0 <= survival.retained <= survival.planted
        assert survival.eliminated == survival.planted - survival.retained
        assert survival.dead_retained <= survival.retained
        assert 0.0 <= survival.survival_rate <= 1.0


def test_engine_parses_only_marked_texts_once_and_analyzes_once_per_seed(
        monkeypatch):
    """A seed is never parsed: the engine plants the generator's own tree,
    and its marked program is parsed and analyzed once, as the frontend
    master the liveness run and every build start from.  No optimized
    build is analyzed, however many the survey makes."""
    real_parse, real_analyze = parser.parse_program, sema.analyze
    parses = Counter()
    analyses = []

    def counting_parse(source):
        parses[source] += 1
        return real_parse(source)

    def counting_analyze(unit):
        analyses.append(unit)
        return real_analyze(unit)

    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is real_parse:
                    monkeypatch.setattr(module, attr, counting_parse)
                elif value is real_analyze:
                    monkeypatch.setattr(module, attr, counting_analyze)
    config = MarkerCampaignConfig(**dict(SMALL, num_seeds=3))
    engine = MarkerEngine(config)
    batches = [engine.run_seed(index) for index in range(3)]
    monkeypatch.undo()
    assert all(batch.generated for batch in batches)
    builds = engine.oracle.cache.stats()["misses"] - 3
    assert builds > 2 * len(batches)
    assert len(analyses) == len(batches)
    generator = CsmithGenerator(GeneratorConfig(seed=config.rng_seed))
    seeds = [generator.generate(index).source for index in range(3)]
    marked = [MarkerPlanter().plant(source).source for source in seeds]
    assert dict(parses) == dict.fromkeys(marked, 1)


def test_engine_draws_no_findings_from_a_run_that_never_finishes():
    """A program whose loop never ends leaves markers unreached that are
    not dead: the engine classifies none of them."""
    source = """\
int main(void) {
  unsigned int crc = 0;
  for (int i = 0; 1; i++) { crc ^= 0; }
  if (crc) { crc = 2; }
  return 0;
}
"""
    engine = MarkerEngine(MarkerCampaignConfig(**SMALL))
    marked, findings = engine.analyze_source(source)
    assert marked.sites and engine.oracle.liveness(marked)[0] is None
    assert findings == []


def test_run_seed_is_a_pure_function_of_config_and_index():
    first = MarkerEngine(MarkerCampaignConfig(**SMALL)).run_seed(1)
    second = MarkerEngine(MarkerCampaignConfig(**SMALL)).run_seed(1)
    assert first.findings == second.findings
    assert first.survival == second.survival
    assert first.planted == second.planted


def test_parallel_campaign_is_bit_identical_to_serial(small_result):
    parallel = OrchestratedCampaign(MarkerCampaignConfig(**SMALL),
                                    workers=2).run()
    assert _comparable(parallel) == _comparable(small_result)


def test_orchestrated_markers_mode_matches_plain_engine(small_result):
    lines = []
    orchestrated = OrchestratedCampaign(MarkerCampaignConfig(**SMALL),
                                        progress=lines.append)
    result = orchestrated.run()
    assert _comparable(result) == _comparable(small_result)
    assert len(lines) == SMALL["num_seeds"]   # one monitor line per seed
    # The last line counts every raw finding of the campaign.
    assert result.stats.raw_findings
    assert f"| findings {result.stats.raw_findings} |" in lines[-1]


def test_orchestrated_markers_mode_rejects_fuzzing_only_features(tmp_path):
    with pytest.raises(ValueError):
        OrchestratedCampaign(MarkerCampaignConfig(**SMALL),
                             checkpoint_path=str(tmp_path / "cp.json"))
    with pytest.raises(ValueError):
        OrchestratedCampaign(MarkerCampaignConfig(**SMALL),
                             corpus=str(tmp_path / "corpus"))
    with pytest.raises(ValueError):
        OrchestratedCampaign(MarkerCampaignConfig(**SMALL),
                             max_seeds_per_session=1)
    with pytest.raises(ValueError, match="marker campaigns do not support"):
        OrchestratedCampaign(MarkerCampaignConfig(**SMALL), trace=True)


def test_cli_markers_mode_json(capsys):
    exit_code = cli_main([
        "--mode", "markers", "--seeds", "1", "--rng-seed", "7",
        "--versions", "gcc=10-12,llvm=15-16", "--quiet", "--json"])
    assert exit_code == 0
    import json
    summary = json.loads(capsys.readouterr().out)
    assert summary["mode"] == "markers"
    assert summary["seeds_used"] == 1
    assert summary["markers_planted"] > 0
    assert "buckets" in summary


def test_cli_markers_summary_counts_compiles(capsys):
    """The survey compiles once per distinct effective pipeline, and the
    summary says how many compiles served the surveyed configs."""
    args = ["--mode", "markers", "--seeds", "1", "--rng-seed", "7",
            "--versions", "gcc=10-12,llvm=15-16", "--quiet"]
    config = MarkerCampaignConfig(
        rng_seed=7, versions={"gcc": [10, 11, 12], "llvm": [15, 16]})
    configs = [c for name in config.compilers for c in config.configs_for(name)]
    pipelines = {(c.compiler, c.opt_level,
                  tuple(effective_pass_names(c.compiler, c.opt_level,
                                             c.version)))
                 for c in configs}
    assert len(configs) == 10 and len(pipelines) == 7
    assert cli_main(args + ["--json"]) == 0
    import json
    summary = json.loads(capsys.readouterr().out)
    assert summary["configs_surveyed"] == len(configs)
    assert summary["compiles"] == len(pipelines)
    assert cli_main(args) == 0
    assert "configs surveyed      : 10 (7 compiles)" in capsys.readouterr().out


def test_cli_markers_mode_rejects_checkpoint(capsys):
    exit_code = cli_main([
        "--mode", "markers", "--seeds", "1", "--checkpoint", "cp.json"])
    assert exit_code == 2
    assert ("error: checkpoint_path (--checkpoint) and corpus (--corpus) "
            "storage is only supported for fuzzing campaigns") \
        in capsys.readouterr().err


def test_cli_rejects_bad_versions_spec(capsys):
    assert cli_main(["--mode", "markers", "--versions", "gcc=oops"]) == 2
    assert "--versions" in capsys.readouterr().err


def test_cli_rejects_versions_for_unsurveyed_compiler(capsys):
    assert cli_main(["--mode", "markers", "--versions", "gc=10-12"]) == 2
    assert "gc" in capsys.readouterr().err


def test_cli_markers_mode_rejects_session_cap(capsys):
    exit_code = cli_main(["--mode", "markers", "--seeds", "2",
                          "--max-seeds-per-session", "1"])
    assert exit_code == 2
    assert ("error: max_seeds_per_session (--max-seeds-per-session) "
            "requires checkpoint/resume, which marker campaigns do not "
            "support") in capsys.readouterr().err


def test_cli_fuzz_mode_still_defaults_to_all_levels(capsys):
    exit_code = cli_main(["--seeds", "1", "--no-triage", "--quiet", "--json"])
    assert exit_code == 0
    import json
    summary = json.loads(capsys.readouterr().out)
    assert summary["seeds_used"] == 1
