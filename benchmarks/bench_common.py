"""Shared helpers and scale knobs for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(§4) at a reduced scale — the paper's campaign ran for five months on two
64-core servers; these benches run the same pipelines over a handful of
seeds so the whole suite finishes in minutes while preserving the
qualitative shape of each result.
"""

from __future__ import annotations

#: Scale of the RQ1 bug-finding campaign (Tables 3/6, Figures 7/10/11).
CAMPAIGN_SCALE = dict(num_seeds=4, rng_seed=2024, max_programs_per_type=1,
                      opt_levels=("-O0", "-O1", "-Os", "-O2", "-O3"))

#: Scale of the RQ2 generator comparison (Tables 4/5).
COMPARISON_SCALE = dict(num_seeds=4, rng_seed=7, programs_per_seed=8,
                        max_programs_per_type=2)


def bench_print(*parts) -> None:
    """Print a line of the regenerated table/figure and append it to the
    benchmark report file, so the results survive output capturing.

    The report is a generated artifact: it lands under ``artifacts/`` (a
    gitignored directory CI uploads), never in the repository root."""
    import os
    print(*parts)
    artifacts = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "artifacts")
    os.makedirs(artifacts, exist_ok=True)
    report = os.path.join(artifacts, "benchmark_report.txt")
    with open(report, "a", encoding="utf-8") as handle:
        handle.write(" ".join(str(p) for p in parts) + "\n")


#: Version of the ``bench_<name>.json`` artifact layout.  2 added the
#: ``stamp`` block (git sha, timestamp, hostname) that names the commit and
#: machine a record measured.
BENCH_SCHEMA = 2


def write_bench_record(name: str, **fields) -> str:
    """Persist one benchmark's machine-readable result.

    Writes ``artifacts/bench_<name>.json`` (the same gitignored directory
    the human-readable report lands in; CI uploads both), so throughput
    numbers can be tracked across runs without scraping captured stdout.
    Each record is stamped with the schema version, git sha, wall-clock
    timestamp and hostname, so a record read later names the commit and
    machine that measured it.
    Returns the written path."""
    import json
    import os
    from repro.telemetry.store import stamp_fields
    artifacts = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "artifacts")
    os.makedirs(artifacts, exist_ok=True)
    path = os.path.join(artifacts, f"bench_{name}.json")
    record = {"bench": name, "schema": BENCH_SCHEMA,
              "stamp": stamp_fields(), **fields}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def print_table(title: str, headers, rows) -> None:
    from repro.utils.text import format_table
    bench_print()
    bench_print(f"=== {title} ===")
    bench_print(format_table(headers, rows))


def run_once(benchmark, func):
    """Run *func* exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
