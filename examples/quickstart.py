#!/usr/bin/env python
"""Quickstart: generate a UB program from a seed and find a sanitizer FN bug.

This walks the full UBfuzz workflow on one seed program:

1. generate a valid seed program (Csmith-like generator),
2. mutate it into UB programs via shadow statement insertion (Algorithm 1),
3. compile one UB program with a sanitizer at two optimization levels,
4. apply the crash-site mapping oracle (Algorithm 2) to the discrepancy.

Run:  python examples/quickstart.py [--smoke]
"""

import sys

from repro import (
    CsmithGenerator,
    DifferentialTester,
    GeneratorConfig,
    UBGenerator,
)


def main() -> None:
    smoke = "--smoke" in sys.argv  # quickstart is already smoke-sized
    # 1. A valid, self-contained seed program.
    seed = CsmithGenerator(GeneratorConfig(seed=42)).generate(0)
    print("=== seed program (first 12 lines) ===")
    print("\n".join(seed.source.splitlines()[:12]))
    print("...")

    # 2. UB programs for every supported UB type.
    generator = UBGenerator(seed=1, max_programs_per_type=1)
    by_type = generator.generate_all(seed)
    total = sum(len(programs) for programs in by_type.values())
    print(f"\ngenerated {total} UB programs from this seed:")
    for ub_type, programs in by_type.items():
        if programs:
            print(f"  {ub_type.value:35s} {len(programs)} program(s)")

    # 3. Differentially test each UB program across compilers and levels.
    opt_levels = ("-O0", "-O2") if smoke else ("-O0", "-O2", "-O3")
    tester = DifferentialTester(opt_levels=opt_levels)
    for ub_type, programs in by_type.items():
        for program in programs:
            result = tester.test(program)
            if not result.fn_candidates:
                continue
            candidate = result.fn_candidates[0]
            print(f"\n=== sanitizer FN bug candidate ({ub_type.value}) ===")
            print(f"  detected by : {candidate.detecting.config.label}"
                  f"  -> {candidate.detecting.verdict[1]}")
            print(f"  missed by   : {candidate.missing.config.label}")
            print(f"  crash site  : line {candidate.crash_site[0]}, "
                  f"offset {candidate.crash_site[1]}")
            # 4. The oracle's verdict, applied by the tester to the runs.
            print(f"  oracle      : {candidate.verdict.reason}")
            return
    print("\nno FN bug candidate found on this seed "
          "(try more seeds, e.g. examples/fuzzing_campaign.py)")


if __name__ == "__main__":
    main()
