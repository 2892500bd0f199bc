"""Differential-matrix throughput — one shared cache vs. no sharing.

The hot path of every campaign is ``DifferentialTester.test``: one UB
program compiled and executed under every relevant (compiler, sanitizer,
optimization level) configuration.  Through one shared
:class:`~repro.compilers.cache.CompilationCache` a matrix performs one
parse and one optimizer run per opt level, and only the per-configuration
sanitizer overlay + execution remain.  Without sharing — a fresh tester,
and so a fresh cache, per configuration — each configuration repeats the
full ``parse → sema → optimize → instrument`` pipeline.

This bench measures a full 9-configuration matrix (LLVM × {ASan, UBSan,
MSan} × {-O0, -O2, -O3}) both ways and asserts:

* the shared matrix is at least 2x faster than the unshared one (each
  shared round starts from a *cold* cache, so the speedup measured is the
  intra-matrix phase sharing, not warm-cache replay), and
* the produced outcomes are bit-identical.
"""

from __future__ import annotations

import os
import time

from bench_common import bench_print, run_once, write_bench_record

from repro.core.differential import DifferentialTester, TestConfig
from repro.core.ub_types import ALL_UB_TYPES
from repro.core.ubgen import UBGenerator
from repro.seedgen import CsmithGenerator, GeneratorConfig

MATRIX = [TestConfig("llvm", sanitizer, level)
          for sanitizer in ("asan", "ubsan", "msan")
          for level in ("-O0", "-O2", "-O3")]

ROUNDS = 5

#: Required end-to-end speedup of the cold-cache matrix (the acceptance
#: bar).  The blocking tier-1 CI job sets RELAXED_THROUGHPUT_GATE so a noisy
#: shared runner cannot fail the whole suite on a wall-clock ratio; the
#: dedicated (non-blocking) throughput job and local runs enforce the full
#: bar.
MIN_SPEEDUP = 1.2 if os.environ.get("RELAXED_THROUGHPUT_GATE") else 2.0

#: Hard ceiling on the telemetry layer's disabled-path cost on this hot
#: path: the estimated total cost of every hook crossing in one matrix must
#: stay under this fraction of the matrix's wall time.
TELEMETRY_OVERHEAD_BUDGET = 0.02

_HOOK_TIMING_ITERS = 50_000


def _ub_program():
    seed = CsmithGenerator(GeneratorConfig(seed=555)).generate(6)
    return UBGenerator(seed=1, max_programs_per_type=1).generate(
        seed, ALL_UB_TYPES[3])[0]


def _best_of(rounds, func):
    best, result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_differential_throughput(benchmark):
    program = _ub_program()

    def unshared_matrix():
        # A fresh tester per configuration = a fresh cache per
        # configuration: nothing is shared.
        outcomes = [DifferentialTester().run_config(program, config)
                    for config in MATRIX]
        return DifferentialTester().analyze(program, outcomes)

    def cold_cached_matrix():
        # A fresh tester per round = a cold cache per round: the measured
        # speedup comes from phase sharing within one matrix.
        return DifferentialTester().test(program, configs=MATRIX)

    unshared_seconds, unshared = _best_of(ROUNDS, unshared_matrix)
    cached_seconds, cached = _best_of(ROUNDS, cold_cached_matrix)
    run_once(benchmark, cold_cached_matrix)

    # Also report the steady-state (warm cache) figure a campaign worker
    # sees when re-testing a program, e.g. during triage.
    warm_tester = DifferentialTester()
    warm_tester.test(program, configs=MATRIX)
    warm_seconds, _ = _best_of(ROUNDS,
                               lambda: warm_tester.test(program, configs=MATRIX))

    speedup = unshared_seconds / cached_seconds
    bench_print()
    bench_print("=== Differential matrix throughput (9 configs, one UB program) ===")
    bench_print(f"unshared      : {unshared_seconds * 1000:7.1f} ms")
    bench_print(f"cached (cold) : {cached_seconds * 1000:7.1f} ms = {speedup:4.2f}x")
    bench_print(f"cached (warm) : {warm_seconds * 1000:7.1f} ms = "
                f"{unshared_seconds / warm_seconds:4.2f}x")

    # Bit-identical bug reports: every outcome of every configuration.
    assert len(cached.outcomes) == len(unshared.outcomes) == len(MATRIX)
    for a, b in zip(cached.outcomes, unshared.outcomes):
        assert a.config == b.config
        assert a.result == b.result
        assert a.error == b.error
    assert len(cached.fn_candidates) == len(unshared.fn_candidates)
    assert cached.optimization_discrepancies == unshared.optimization_discrepancies

    write_bench_record(
        "differential_throughput",
        matrix_configs=len(MATRIX),
        unshared_ms=round(unshared_seconds * 1000, 2),
        cached_cold_ms=round(cached_seconds * 1000, 2),
        cached_warm_ms=round(warm_seconds * 1000, 2),
        speedup=round(speedup, 3),
        min_speedup=MIN_SPEEDUP)

    assert speedup >= MIN_SPEEDUP, (
        f"shared compilation must be >= {MIN_SPEEDUP}x on a 9-config matrix, "
        f"measured {speedup:.2f}x")


def test_disabled_telemetry_overhead():
    """Pin the cost of *disabled* telemetry on the differential hot path.

    Comparing two wall-clock runs of the same matrix cannot resolve a 2%
    difference above scheduler noise, so the guard decomposes the bound:

    1. count the hook crossings one matrix performs (run it once with
       metrics enabled and sum the event counts),
    2. measure the per-crossing cost of the disabled fast path in a tight
       loop, and
    3. assert ``crossings x per-crossing cost <= 2%`` of the measured
       matrix wall time.

    This also pins the instrumentation-granularity rule: hooking a per-AST-
    node or per-VM-tick site would multiply the crossing count by orders of
    magnitude and blow the budget immediately.
    """
    from repro.telemetry import runtime as telemetry

    assert telemetry.current() is None, "bench must start with telemetry off"
    program = _ub_program()

    # 1. Hook crossings per matrix, counted by an enabled run.
    telemetry.enable(campaign="bench-overhead")
    try:
        DifferentialTester().test(program, configs=MATRIX)
        totals = telemetry.current().metrics.deterministic_totals()
    finally:
        telemetry.disable()
    # ``vm.steps`` counts interpreter ticks, recorded *by amount* in the
    # same registry touch as ``vm.runs`` — its value is not a crossing
    # count.  Stages cross twice (enter + exit); double everything as
    # safety margin.
    crossings = 2 * sum(value for key, value in totals.items()
                        if key != "vm.steps")
    assert crossings > 0

    # 2. Per-crossing cost of the disabled fast path (inc + stage).
    start = time.perf_counter()
    for _ in range(_HOOK_TIMING_ITERS):
        telemetry.inc("overhead.probe")
        with telemetry.stage("frontend"):
            pass
    per_crossing = (time.perf_counter() - start) / (2 * _HOOK_TIMING_ITERS)

    # 3. The wall time the overhead is relative to.
    matrix_seconds, _ = _best_of(
        ROUNDS, lambda: DifferentialTester().test(program, configs=MATRIX))

    overhead_seconds = crossings * per_crossing
    share = overhead_seconds / matrix_seconds
    bench_print()
    bench_print("=== Disabled-telemetry overhead (differential matrix) ===")
    bench_print(f"hook crossings : {crossings} per matrix")
    bench_print(f"fast-path cost : {per_crossing * 1e9:6.1f} ns/crossing")
    bench_print(f"overhead       : {overhead_seconds * 1e6:6.1f} us on a "
                f"{matrix_seconds * 1000:.1f} ms matrix = {share:.4%} "
                f"(budget: {TELEMETRY_OVERHEAD_BUDGET:.0%})")
    write_bench_record(
        "telemetry_overhead",
        hook_crossings=crossings,
        fast_path_ns=round(per_crossing * 1e9, 1),
        overhead_share=round(share, 6),
        budget=TELEMETRY_OVERHEAD_BUDGET)

    assert share <= TELEMETRY_OVERHEAD_BUDGET, (
        f"disabled telemetry costs {share:.2%} of the differential matrix "
        f"(budget: {TELEMETRY_OVERHEAD_BUDGET:.0%})")
