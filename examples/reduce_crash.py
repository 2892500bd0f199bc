#!/usr/bin/env python
"""From corpus crash bucket to minimal reproducer, step by step.

This example walks the path a real bug report takes (see
docs/ARCHITECTURE.md, "Reduction"):

1. run a miniature orchestrated campaign with a persistent corpus store —
   every FN-bug candidate lands in a dedup bucket keyed by
   (UB type, crash site, sanitizer);
2. pick the first bucket and its representative crashing program;
3. build the interestingness predicate ("the same sanitizer still misses
   the same UB another configuration still detects");
4. reduce the program with the hierarchical reducer, which judges its
   candidates one at a time and applies the first accepted one;
5. persist `reduced/<bucket>.c` into the corpus next to the bucket.

Run:  python examples/reduce_crash.py [--smoke]
"""

import sys
import tempfile
from pathlib import Path

from repro import CampaignConfig, OrchestratedCampaign
from repro.orchestrator import bucket_key_for
from repro.reduction import HierarchicalReducer, make_fn_bug_predicate, record_for


def main() -> None:
    smoke = "--smoke" in sys.argv

    with tempfile.TemporaryDirectory(prefix="reduce-crash-") as tmp:
        corpus_dir = Path(tmp) / "corpus"

        # 1. A small campaign with a persistent corpus (no triage: we only
        #    want the deduplicated crashes here).
        config = CampaignConfig(num_seeds=1 if smoke else 2, rng_seed=2024,
                                max_programs_per_type=1,
                                opt_levels=("-O0", "-O2"), triage=False)
        campaign = OrchestratedCampaign(config, corpus=str(corpus_dir))
        result = campaign.run()
        corpus = campaign.corpus
        print(f"campaign: {result.stats.programs_tested} programs tested, "
              f"{len(result.fn_candidates)} FN candidates in "
              f"{corpus.unique_crashes} dedup buckets")

        if not result.fn_candidates:
            print("no crashes at this scale - try more seeds")
            return

        # 2. The first bucket's representative candidate.
        candidate = result.fn_candidates[0]
        program = candidate.program
        key = bucket_key_for(candidate)
        print(f"\nbucket {key}:")
        print(f"  detected by : {candidate.detecting.config.label}")
        print(f"  missed by   : {candidate.missing.config.label}")
        print(f"  program     : {len(program.source.splitlines())} lines")

        # 3. + 4. Reduce.
        predicate = make_fn_bug_predicate(program, candidate.detecting.config,
                                          candidate.missing.config)
        reducer = HierarchicalReducer(predicate,
                                      max_rounds=2 if smoke else 8)
        reduction = reducer.reduce(program.source)
        record = record_for("-".join(key).replace(":", "_"), candidate,
                            reduction)
        print(f"\nreduced {record.original_tokens} -> {record.reduced_tokens} "
              f"tokens ({record.token_reduction:.0%}) in "
              f"{reduction.predicate_evaluations} predicate evaluations / "
              f"{reduction.duration_seconds:.1f}s")

        # 5. Persist the reproducer next to its bucket.
        path = corpus.record_reduction(key, reduction.reduced_source,
                                       stats=record.to_json())
        corpus.flush()
        print(f"\nwrote {Path(path).relative_to(tmp)}:")
        print(reduction.reduced_source)


if __name__ == "__main__":
    main()
