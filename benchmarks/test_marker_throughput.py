"""Marker config-matrix throughput — one shared cache vs. no sharing.

The marker engine's hot path is the elimination survey: one marked program
optimized under every (compiler, version, opt-pipeline) configuration.
Without sharing — a fresh :class:`~repro.markers.EliminationOracle`, and so
a fresh cache, per configuration — each configuration repeats the full
``parse → sema → optimize`` pipeline; through one shared
:class:`~repro.compilers.cache.CompilationCache` the frontend runs once per
program and the optimizer once per *effective pipeline signature* —
releases between which no pass was introduced, none defect-disabled share
one optimizer artifact — and all those pipelines run as one walk that runs
the steps their schedules share once.

This bench measures a full matrix (gcc × 10 releases + llvm × 14 releases,
each at -O0/-O2/-O3) both ways and asserts:

* the shared matrix is at least 2x faster than the unshared one (each
  shared round starts from a *cold* cache: the speedup is intra-matrix
  phase sharing, not warm-cache replay), and
* the produced outcomes (retained marker sets, passes run) are
  bit-identical.
"""

from __future__ import annotations

import os
import time

from bench_common import bench_print, run_once, write_bench_record

from repro.compilers import all_versions
from repro.compilers.cache import CompilationCache
from repro.markers import EliminationOracle, MarkerConfig, MarkerPlanter
from repro.seedgen import CsmithGenerator, GeneratorConfig

MATRIX = [MarkerConfig(compiler, version, level)
          for compiler in ("gcc", "llvm")
          for version in all_versions(compiler)
          for level in ("-O0", "-O2", "-O3")]

ROUNDS = 3

#: Required end-to-end speedup of the cold-cache matrix (the acceptance
#: bar).  The blocking tier-1 CI job sets RELAXED_THROUGHPUT_GATE so a noisy
#: shared runner cannot fail the whole suite on a wall-clock ratio; the
#: dedicated (non-blocking) throughput job and local runs enforce the full
#: bar.
MIN_SPEEDUP = 1.2 if os.environ.get("RELAXED_THROUGHPUT_GATE") else 2.0


def _marked_program():
    seed = CsmithGenerator(GeneratorConfig(seed=555)).generate(6)
    return MarkerPlanter().plant(seed.source, seed_index=6)


def _cached_matrix(marked):
    """Survey the whole matrix through one cold shared cache."""
    oracle = EliminationOracle(cache=CompilationCache())
    outcomes = oracle.survey(marked, MATRIX)
    return {config: (outcome.retained, outcome.passes_run)
            for config, outcome in outcomes.items()}, oracle.cache.stats()


def _unshared_matrix(marked):
    """Survey every configuration alone, through a fresh oracle and so a
    fresh cache (no artifact sharing)."""
    outcomes = {}
    for config in MATRIX:
        outcome = EliminationOracle().compile_one(marked, config)
        outcomes[config] = (outcome.retained, outcome.passes_run)
    return outcomes


def _measure(func, rounds=ROUNDS):
    best = None
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = func()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def test_marker_matrix_cache_speedup(benchmark):
    marked = _marked_program()

    unshared_time, unshared = _measure(lambda: _unshared_matrix(marked))
    cached_time, (cached, cache_stats) = run_once(
        benchmark, lambda: _measure(lambda: _cached_matrix(marked)))

    assert cached == unshared, \
        "shared-cache outcomes must be bit-identical to unshared surveys"

    speedup = unshared_time / cached_time
    bench_print()
    bench_print("=== Marker config-matrix throughput ===")
    bench_print(f"configs               : {len(MATRIX)}")
    bench_print(f"unshared matrix       : {unshared_time * 1000:.1f} ms")
    bench_print(f"cached matrix (cold)  : {cached_time * 1000:.1f} ms")
    bench_print(f"speedup               : {speedup:.2f}x "
                f"(required: {MIN_SPEEDUP}x)")
    bench_print(f"cache                 : {cache_stats['hits']} hits / "
                f"{cache_stats['misses']} misses, "
                f"{cache_stats['optimized_entries']} optimizer artifacts "
                f"for {len(MATRIX)} configs")
    write_bench_record(
        "marker_throughput",
        matrix_configs=len(MATRIX),
        unshared_ms=round(unshared_time * 1000, 2),
        cached_cold_ms=round(cached_time * 1000, 2),
        speedup=round(speedup, 3),
        min_speedup=MIN_SPEEDUP,
        cache_hits=cache_stats["hits"],
        cache_misses=cache_stats["misses"])

    assert speedup >= MIN_SPEEDUP, (
        f"shared compilation cache gives only {speedup:.2f}x over unshared "
        f"(required: {MIN_SPEEDUP}x)")
