"""Reduction throughput — predicate evaluations/sec, shared cache vs. not.

Reduction is predicate-bound: every candidate is compiled and executed
under several configurations, so the
:class:`~repro.compilers.cache.CompilationCache` — one parse per candidate
and one optimizer run per opt level, instead of one full compile per
configuration — directly multiplies how many candidates a reducer can
screen per second.

This bench takes a campaign-scale UB program (the same csmith-style
program the differential-throughput bench uses), reduces it once with the
full-matrix signature predicate (UB type, report kind and missing
configuration must survive) while recording every candidate actually
screened, then replays a fixed slice of that candidate list two ways:

* **shared cache** — one ``DifferentialTester()`` whose cache is shared
  across the whole replay, as during a real reduction;
* **unshared**    — a tester whose cache is cleared before each
  configuration, so every configuration runs the full pipeline;

and asserts the cached path screens candidates at least 2x faster with
bit-identical accept/reject verdicts.
"""

from __future__ import annotations

import os
import time

from bench_common import bench_print, run_once, write_bench_record

from repro.core.differential import DifferentialTester, TestConfig
from repro.core.insertion import UBProgram
from repro.core.ub_types import ALL_UB_TYPES
from repro.core.ubgen import UBGenerator
from repro.reduction import HierarchicalReducer
from repro.seedgen import CsmithGenerator, GeneratorConfig

#: 9 configurations over 3 distinct opt levels: the optimizer phase is
#: shared 3-ways and the frontend 9-ways, exactly the differential bench's
#: sharing profile.
MATRIX = [TestConfig("llvm", sanitizer, level)
          for sanitizer in ("asan", "ubsan", "msan")
          for level in ("-O0", "-O2", "-O3")]

ROUNDS = 2
REPLAY_CANDIDATES = 16

#: Required speedup in predicate evaluations/sec (acceptance bar).  The
#: blocking tier-1 CI job sets RELAXED_THROUGHPUT_GATE so a noisy shared
#: runner cannot fail the suite on a wall-clock ratio; the dedicated
#: (non-blocking) throughput job and local runs enforce the full bar.
MIN_SPEEDUP = 1.2 if os.environ.get("RELAXED_THROUGHPUT_GATE") else 2.0


def _signature(candidate) -> tuple:
    """What must survive reduction: UB type, report kind, missing config."""
    return (candidate.program.ub_type, candidate.detecting.verdict[1],
            candidate.missing.config)


def _program_and_signature():
    seed = CsmithGenerator(GeneratorConfig(seed=555)).generate(6)
    program = UBGenerator(seed=1, max_programs_per_type=1).generate(
        seed, ALL_UB_TYPES[3])[0]
    diff = DifferentialTester().test(program, configs=MATRIX)
    assert diff.fn_candidates, "the pinned program must produce an FN"
    return program, _signature(diff.fn_candidates[0])


def _matrix_predicate(program, signature, tester):
    """The full-matrix predicate: the candidate, differentially tested
    across MATRIX, must reproduce *signature*."""

    def predicate(source: str) -> bool:
        candidate = UBProgram(source=source, ub_type=program.ub_type,
                              seed_index=program.seed_index,
                              description=program.description)
        result = tester.test(candidate, configs=MATRIX)
        return any(_signature(fn) == signature
                   for fn in result.fn_candidates)

    return predicate


class _UnsharedTester(DifferentialTester):
    """A tester that shares nothing between configurations."""

    def run_config(self, program, config):
        self.cache.clear()
        return super().run_config(program, config)


def _best_of(rounds, func):
    best, result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_reduction_throughput(benchmark):
    program, signature = _program_and_signature()

    # One real reduction, recording every candidate the predicate screened.
    candidates: list = []
    inner = _matrix_predicate(program, signature, DifferentialTester())

    def recording_predicate(source: str) -> bool:
        candidates.append(source)
        return inner(source)

    result = HierarchicalReducer(recording_predicate).reduce(program.source)
    assert result.edits_applied >= 1
    assert result.token_reduction >= 0.5
    replay_set = candidates[:REPLAY_CANDIDATES]
    assert len(replay_set) >= 10

    def replay(tester: DifferentialTester):
        predicate = _matrix_predicate(program, signature, tester)
        return [predicate(source) for source in replay_set]

    unshared_seconds, unshared = _best_of(
        ROUNDS, lambda: replay(_UnsharedTester()))
    cached_seconds, cached = _best_of(
        ROUNDS, lambda: replay(DifferentialTester()))
    run_once(benchmark, lambda: replay(DifferentialTester()))

    assert cached == unshared  # bit-identical accept/reject verdicts

    unshared_rate = len(replay_set) / unshared_seconds
    cached_rate = len(replay_set) / cached_seconds
    speedup = cached_rate / unshared_rate
    bench_print()
    bench_print(f"=== Reduction throughput ({len(replay_set)} candidates, "
                f"{len(MATRIX)}-config signature predicate) ===")
    bench_print(f"reduction     : {result.original_tokens} -> "
                f"{result.reduced_tokens} tokens "
                f"({result.token_reduction:.0%}) in "
                f"{result.predicate_evaluations} evaluations")
    bench_print(f"unshared      : {unshared_rate:7.1f} evals/s")
    bench_print(f"shared cache  : {cached_rate:7.1f} evals/s = {speedup:4.2f}x")

    write_bench_record(
        "reduction_throughput",
        matrix_configs=len(MATRIX),
        replay_candidates=len(replay_set),
        unshared_evals_per_sec=round(unshared_rate, 1),
        cached_evals_per_sec=round(cached_rate, 1),
        speedup=round(speedup, 3),
        min_speedup=MIN_SPEEDUP)

    assert speedup >= MIN_SPEEDUP, (
        f"shared compilation must screen candidates >= {MIN_SPEEDUP}x "
        f"faster, measured {speedup:.2f}x")
