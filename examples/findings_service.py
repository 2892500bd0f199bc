#!/usr/bin/env python
"""Campaign-as-a-service: one findings database, many campaigns.

Two overlapping fuzzing campaigns write into a single SQLite findings
database.  The second campaign re-finds the first one's crash buckets and
the database marks them as *recurrences* (first seen by campaign A) instead
of double-counting them; a third campaign runs in ``resurvey`` mode and
skips every (program, compiler, opt-level, sanitizer) outcome cell the
database already recorded — the incremental re-run that makes a long-lived
bug-finding service cheap to keep fresh.

Run:  python examples/findings_service.py [--smoke]

The same machinery is available from the shell:

    python -m repro.orchestrator --seeds 5 --corpus a/ --db findings.sqlite
    python -m repro.orchestrator --seeds 8 --corpus b/ --db findings.sqlite
    python -m repro.orchestrator query --db findings.sqlite --compiler gcc
"""

import sys
import tempfile
from pathlib import Path

from repro import CampaignConfig, CorpusStore, OrchestratedCampaign
from repro.analysis import table_campaign_recurrence
from repro.corpusdb import FindingsDB
from repro.utils.text import format_table


def run_campaign(label: str, config: CampaignConfig, corpus_dir: str,
                 db_path: str, resurvey: bool = False):
    store = CorpusStore(root=corpus_dir, db_path=db_path, campaign_key=label)
    campaign = OrchestratedCampaign(config, corpus=store, resurvey=resurvey)
    result = campaign.run()
    print(f"-> {label}: {result.stats.programs_tested} programs tested, "
          f"{store.unique_crashes} buckets "
          f"({store.new_global_buckets} new, "
          f"{store.recurrent_buckets} recurrent)")
    if resurvey:
        total = campaign.surveyed_cells + campaign.skipped_cells
        share = campaign.skipped_cells / total if total else 0.0
        print(f"   resurvey skipped {campaign.skipped_cells}/{total} "
              f"outcome cells already in the database ({share:.0%})")
    return campaign


def main() -> None:
    smoke = "--smoke" in sys.argv
    base = dict(rng_seed=5, max_programs_per_type=1,
                opt_levels=("-O0", "-O2"))
    small = CampaignConfig(num_seeds=2 if smoke else 3, **base)
    # The wider campaign overlaps the smaller one: same RNG stream, more
    # seeds — its first seeds regenerate identical programs.
    wide = CampaignConfig(num_seeds=3 if smoke else 5, **base)

    with tempfile.TemporaryDirectory() as workdir:
        db_path = str(Path(workdir) / "findings.sqlite")

        print("=== campaign A (seeds the database) ===")
        run_campaign("campaign-a", small, str(Path(workdir) / "a"), db_path)

        print("\n=== campaign B (overlapping: recurrences, not duplicates) ===")
        second = run_campaign("campaign-b", wide,
                              str(Path(workdir) / "b"), db_path)
        for key, bucket in sorted(second.corpus.buckets.items()):
            origin = (f"first seen by {bucket.first_seen['campaign']}"
                      if bucket.recurrence else "new in this campaign")
            print(f"   {bucket.slug}: {origin}")

        print("\n=== campaign C (--resurvey: incremental re-run) ===")
        run_campaign("campaign-c", wide, str(Path(workdir) / "c"),
                     db_path, resurvey=True)

        print("\n=== the cross-campaign ledger ===")
        with FindingsDB(db_path) as db:
            headers, rows = table_campaign_recurrence(db.campaign_recurrence())
            print(format_table(headers, rows))
            counts = db.summary()
        print(f"database: {counts['buckets']} buckets, "
              f"{counts['programs']} programs, "
              f"{counts['outcomes']} outcome cells — query with: "
              f"python -m repro.orchestrator query --db findings.sqlite")


if __name__ == "__main__":
    main()
