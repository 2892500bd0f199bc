"""Table 5 — line/function/branch coverage of the compiler's sanitizer and
optimizer internals achieved by each corpus (RQ4).

Paper shape: every generator improves moderately over the seeds alone, with
UBfuzz / Csmith-NoSafe showing the largest increases.
"""

from bench_common import COMPARISON_SCALE, print_table, run_once

from repro.analysis import (
    measure_corpus_coverage,
    round_robin_by_seed,
    run_generator_comparison,
    table5_coverage,
)


def test_table5_coverage(benchmark):
    def measure():
        comparison = run_generator_comparison(**COMPARISON_SCALE)
        # Each generator's first programs are taken round-robin across the
        # seeds, so that every corpus, like the seeds row, draws on every
        # seed and not on the first seed alone.
        corpora = {"seeds": [seed.source for seed in comparison.seeds]}
        for generator in ("music", "csmith-nosafe", "ubfuzz"):
            corpora[generator] = [program.source for program in
                                  round_robin_by_seed(comparison.programs[generator])]
        return measure_corpus_coverage(corpora, opt_level="-O2", max_programs=10)

    reports = run_once(benchmark, measure)
    headers, rows = table5_coverage(reports)
    print_table("Table 5: coverage of sanitizer/optimizer internals", headers, rows)

    for compiler in ("gcc", "llvm"):
        seeds = reports[compiler]["seeds"]
        ubfuzz = reports[compiler]["ubfuzz"]
        # All corpora exercise a substantial part of the compiler internals,
        # the UBfuzz corpus never covers fewer lines than the seeds alone,
        # and it takes branch directions the seeds do not.
        assert seeds.line_coverage > 0.10
        assert ubfuzz.line_coverage >= seeds.line_coverage - 1e-9
        assert ubfuzz.branch_coverage > seeds.branch_coverage
        assert 0.0 < ubfuzz.function_coverage <= 1.0
