"""Table 5 — line/function/branch coverage of the compiler's sanitizer and
optimizer internals achieved by each corpus (RQ4).

Paper shape: every generator improves moderately over the seeds alone, with
UBfuzz / Csmith-NoSafe showing the largest increases.
"""

from bench_common import COMPARISON_SCALE, print_table, run_once

from repro.analysis import measure_corpus_coverage, run_generator_comparison, table5_coverage


def test_table5_coverage(benchmark):
    def measure():
        comparison = run_generator_comparison(**COMPARISON_SCALE)
        corpora = {
            "seeds": [seed.source for seed in comparison.seeds],
            "music": [p.source for p in comparison.programs["music"]],
            "csmith-nosafe": [p.source for p in comparison.programs["csmith-nosafe"]],
            "ubfuzz": [p.source for p in comparison.programs["ubfuzz"]],
        }
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
