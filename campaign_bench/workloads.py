"""The benchmark's campaign workloads: inputs, storage paths and findings.

Every workload drives a campaign through the public API only
(``CampaignConfig``, ``MarkerCampaignConfig``, ``OrchestratedCampaign``).

Inputs come from the workload seed.  A campaign's cost grows with the
number and the size of its seed programs, so a workload fixes both:
``SEED_PROGRAMS_PER_SECOND`` times ``--seconds`` seed programs whose
sources total ``MEAN_SOURCE_BYTES`` each on average, within ``TOLERANCE``.
The campaign's ``rng_seed`` is the first candidate searched from the
workload seed whose seed programs meet that size (README.md, Inputs).
"""

from __future__ import annotations

import hashlib
import json
import os

WORKLOADS = ("fuzz", "markers")

SEED_PROGRAMS_PER_SECOND = {"fuzz": 0.3, "markers": 1.0}

#: Mean source bytes of a seed program: the mean over the first 50 seed
#: programs of ``rng_seed`` 1 to 40 (2000 programs, standard deviation 786).
MEAN_SOURCE_BYTES = 3389
TOLERANCE = 0.01

#: Search stride between candidate ``rng_seed`` values of one workload seed.
_RNG_STRIDE = 1_000_003


def plan(workload: str, seed: int, seconds: int) -> tuple:
    """The campaign input ``(rng_seed, num_seeds)`` of one workload seed."""
    from repro import CsmithGenerator, GeneratorConfig

    count = max(1, round(SEED_PROGRAMS_PER_SECOND[workload] * seconds))
    low = count * MEAN_SOURCE_BYTES * (1 - TOLERANCE)
    high = count * MEAN_SOURCE_BYTES * (1 + TOLERANCE)

    def size(generator, validate):
        total = 0
        for index in range(count):
            total += len(generator.generate(index, validate=validate).source)
            if total > high:
                break
        return total

    for attempt in range(1000):
        rng_seed = seed + _RNG_STRIDE * attempt
        generator = CsmithGenerator(GeneratorConfig(seed=rng_seed))
        # Screen candidates without validation, which is ten times
        # faster, then size the one found exactly as the campaign
        # generates it: validated, so with any retried attempt.
        if low <= size(generator, False) <= high \
                and low <= size(generator, True) <= high:
            return rng_seed, count
    raise RuntimeError(f"no campaign of {count} seed programs near seed {seed}")


def build(workload: str, rng_seed: int, num_seeds: int, workdir: str):
    """Construct the workload's campaign; storage paths are fresh per run."""
    from repro import CampaignConfig, MarkerCampaignConfig, OrchestratedCampaign

    db_path = os.path.join(workdir, "findings.sqlite")
    if workload == "markers":
        config = MarkerCampaignConfig(num_seeds=num_seeds, rng_seed=rng_seed)
        return OrchestratedCampaign(config, db_path=db_path)
    config = CampaignConfig(num_seeds=num_seeds, rng_seed=rng_seed,
                            opt_levels=("-O0", "-O2"),
                            max_programs_per_type=1)
    return OrchestratedCampaign(
        config, corpus=os.path.join(workdir, "corpus"),
        checkpoint_path=os.path.join(workdir, "checkpoint.json"),
        db_path=db_path)


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def findings(workload: str, campaign, result) -> dict:
    """Digests of the findings plus the deterministic program count.

    Fuzzing: deduplicated bug reports (id, compiler, sanitizer, UB type,
    status, affected levels and versions) and crash buckets (UB type, crash
    site, missing sanitizer).  Markers: bucket signatures.
    """
    if workload == "markers":
        signatures = sorted(list(key) for key in result.buckets)
        return {"programs": result.stats.seeds_used,
                "digests": {"buckets": _digest(signatures)},
                "buckets": len(signatures)}
    reports = sorted([report.bug_id, report.compiler, report.sanitizer,
                      report.ub_type.value, report.status,
                      list(report.affected_opt_levels),
                      list(report.affected_versions)]
                     for report in result.bug_reports)
    buckets = sorted({(candidate.program.ub_type.value,
                       str(candidate.crash_site),
                       candidate.missing.config.sanitizer)
                      for candidate in result.fn_candidates})
    out = {"programs": result.stats.programs_tested,
           "digests": {"reports": _digest(reports),
                       "buckets": _digest([list(b) for b in buckets])},
           "reports": len(reports), "buckets": len(buckets)}
    # The corpus persists the crash buckets too: they must be as many.
    out["stored_buckets"] = len(campaign.corpus.buckets)
    return out
