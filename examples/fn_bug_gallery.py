#!/usr/bin/env python
"""A gallery of false-negative bugs in the style of the paper's Figure 12.

The gallery has two parts:

* **figure entries** — hand-written minimal programs whose UB one sanitizer
  configuration misses (because of a seeded defect in the simulated
  compiler) while another configuration detects it, mirroring the paper's
  Figure 12;
* **campaign finds** — FN-bug crashes mined live from a small fuzzing
  campaign: full csmith-style programs the way the tool actually finds
  them, before any reduction.

Every entry is then shrunk to a minimal reproducer with the hierarchical
reducer (`repro.reduction`) — the paper uses C-Reduce for this step — and
the reduction-quality table from `repro.analysis` summarizes the outcome.

Run:  python examples/fn_bug_gallery.py [--smoke]

`--smoke` mines a single campaign crash and skips the figure reductions so
the script finishes in a few seconds (used by the docs-consistency check).
"""

import sys

from repro import GccCompiler, LlvmCompiler, UBProgram, UBType
from repro.analysis import table_reduction_quality
from repro.core import TestConfig
from repro.core.differential import DifferentialTester
from repro.core.ubgen import UBGenerator
from repro.reduction import HierarchicalReducer, make_fn_bug_predicate, record_for
from repro.seedgen import CsmithGenerator, GeneratorConfig
from repro.utils.text import format_table

GALLERY = [
    # (title, source, ub_type, detecting config, missing config)
    ("Fig. 12b: boolean widened through a cast hides a division by zero "
     "(GCC UBSan, all levels)",
     """\
int a, c;
short b;
long d;
int main() {
  a = (short)(d == c | b > 9) / 0;
  return a;
}
""",
     UBType.DIVIDE_BY_ZERO,
     TestConfig("llvm", "ubsan", "-O0"), TestConfig("gcc", "ubsan", "-O0")),

    ("Fig. 12e: ++(*p) misleads the null-pointer check (LLVM UBSan)",
     """\
int main() {
  int *a = 0;
  int b[3] = {1, 1, 1};
  ++b[2];
  ++(*a);
  return 0;
}
""",
     UBType.NULL_POINTER_DEREF,
     TestConfig("gcc", "ubsan", "-O0"), TestConfig("llvm", "ubsan", "-O0")),

    ("Fig. 12f: 'uninit - 1' treated as fully defined (LLVM MSan at -O2)",
     """\
int main() {
  unsigned char a;
  if (a - 1)
    __builtin_printf("boom");
  return 1;
}
""",
     UBType.USE_OF_UNINIT_MEMORY,
     TestConfig("llvm", "msan", "-O0"), TestConfig("llvm", "msan", "-O2")),

    ("Fig. 1/12a-like: store through a global pointer loses its ASan check "
     "(GCC ASan at -O2)",
     """\
struct a { int x; };
struct a b[2];
struct a *c = b, *d = b;
int k = 0;
int main() {
  *c = *b;
  k = 2;
  *c = *(d + k);
  return c->x;
}
""",
     UBType.BUFFER_OVERFLOW_POINTER,
     TestConfig("gcc", "asan", "-O0"), TestConfig("gcc", "asan", "-O2")),
]


def figure_entries():
    """The hand-written gallery as (title, FN candidate-like) tuples."""
    entries = []
    for title, source, ub_type, detecting, missing in GALLERY:
        program = UBProgram(source=source, ub_type=ub_type)
        entries.append((title, program, detecting, missing))
    return entries


def campaign_crash_set(max_crashes: int = 5, rng_seed: int = 2024,
                       max_seeds: int = 8):
    """Mine FN-bug crashes from a miniature campaign, one per dedup bucket.

    Returns ``(title, program, detecting_config, missing_config)`` tuples in
    deterministic order — the same crash set for every run of *rng_seed*.
    """
    from repro.orchestrator import bucket_key_for

    generator = CsmithGenerator(GeneratorConfig(seed=rng_seed))
    tester = DifferentialTester(opt_levels=("-O0", "-O2"))
    entries = []
    seen_buckets = set()
    for seed_index in range(max_seeds):
        seed = generator.generate(seed_index)
        by_type = UBGenerator(seed=rng_seed,
                              max_programs_per_type=1).generate_all(seed)
        for ub_type, programs in sorted(by_type.items(),
                                        key=lambda item: item[0].value):
            for program in programs:
                result = tester.test(program)
                for candidate in result.fn_candidates:
                    bucket = bucket_key_for(candidate)
                    if bucket in seen_buckets:
                        continue
                    seen_buckets.add(bucket)
                    title = (f"campaign find (seed {seed_index}): "
                             f"{program.ub_type.value} missed by "
                             f"{candidate.missing.config.label}")
                    entries.append((title, program,
                                    candidate.detecting.config,
                                    candidate.missing.config))
                    if len(entries) >= max_crashes:
                        return entries
    return entries


def build(config: TestConfig, source: str):
    compiler = (GccCompiler(version=13) if config.compiler == "gcc"
                else LlvmCompiler(version=17))
    return compiler.compile(source, opt_level=config.opt_level,
                            sanitizer=config.sanitizer).run()


def main() -> None:
    smoke = "--smoke" in sys.argv

    for title, source, ub_type, detecting, missing in GALLERY:
        print(f"=== {title} ===")
        detected = build(detecting, source)
        missed = build(missing, source)
        print(f"  {detecting.label:32s} -> "
              f"{detected.report.kind if detected.crashed else 'no report'}")
        print(f"  {missing.label:32s} -> "
              f"{missed.report.kind if missed.crashed else 'no report (FALSE NEGATIVE)'}")
        print()

    # The crash set: figure entries plus crashes mined from a campaign.
    crashes = campaign_crash_set(max_crashes=1 if smoke else 5)
    entries = crashes if smoke else figure_entries() + crashes

    print("=== reduced bug reports (C-Reduce step) ===")
    records = []
    last_result = None
    tester = DifferentialTester()
    for title, program, detecting, missing in entries:
        predicate = make_fn_bug_predicate(program, detecting, missing,
                                          tester=tester)
        reducer = HierarchicalReducer(predicate, max_rounds=2 if smoke else 8)
        result = reducer.reduce(program.source)
        records.append(record_for(title.split(":")[0], _candidate_like(
            tester, program, detecting, missing), result))
        last_result = result
    headers, rows = table_reduction_quality(records)
    print(format_table(headers, rows))
    if last_result is not None:
        print()
        print("last reduced reproducer:")
        print(last_result.reduced_source)


def _candidate_like(tester, program, detecting, missing):
    """A stand-in candidate over the cells of the pair's own runs, exposing
    what record_for() reads."""
    from repro.core.differential import FNBugCandidate
    from repro.core.crash_site import OracleVerdict
    return FNBugCandidate(program=program,
                          detecting=tester.run_config(program, detecting).cell,
                          missing=tester.run_config(program, missing).cell,
                          verdict=OracleVerdict(is_bug=True, crash_site=None,
                                                reason="gallery"))


if __name__ == "__main__":
    main()
