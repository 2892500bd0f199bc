"""Interestingness predicates and the campaign-facing reduction helper.

Two predicate flavours are provided:

* :func:`make_fn_bug_predicate` — the pairwise predicate the paper's
  workflow uses while shrinking one report: the *detecting* configuration
  must still report the right UB kind, the *missing* configuration must
  still exit normally, and the crash-site mapping oracle must still call
  the discrepancy a sanitizer bug;
* :func:`make_signature_predicate` — the full-matrix predicate: the
  candidate is differentially tested across a whole configuration matrix
  and must reproduce the original bug signature (UB type, detected report
  kind, missing configuration).  Sharing a
  :class:`~repro.compilers.cache.CompilationCache` pays off heavily here —
  one candidate's matrix performs one parse and one optimizer run per opt
  level instead of one full compile per configuration.

:func:`reduce_fn_candidate` packages the common campaign step: reduce one
FN-bug candidate's program, re-run both configurations on the reduced
source, and hand back a rebuilt candidate plus a :class:`ReductionRecord`
for the analysis layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.compilers.compiler import frontend_master
from repro.core.crash_site import format_crash_site, is_sanitizer_bug_from_results
from repro.core.differential import (
    DifferentialTester,
    FNBugCandidate,
    TestConfig,
    default_configs,
)
from repro.core.insertion import UBProgram
from repro.core.ub_types import detects
from repro.reduction.reducer import (
    HierarchicalReducer,
    Predicate,
    ReductionResult,
    token_count,
)


def make_fn_bug_predicate(program: UBProgram, detecting: TestConfig,
                          missing: TestConfig,
                          tester: Optional[DifferentialTester] = None) -> Predicate:
    """Build the pairwise "still triggers this FN bug" predicate.

    Args:
        program: the original UB program (supplies the UB type).
        detecting: configuration that reports the UB.
        missing: configuration that silently misses it.
        tester: optional shared tester (a campaign passes its own, with
            its defect registry, step budget and compilation cache); by
            default a fresh one with the default registry is built.
    """
    tester = tester or DifferentialTester()

    def predicate(source: str) -> bool:
        candidate = UBProgram(source=source, ub_type=program.ub_type,
                              seed_index=program.seed_index,
                              description=program.description)
        detecting_outcome = tester.run_config(candidate, detecting)
        missing_outcome = tester.run_config(candidate, missing)
        if detecting_outcome.result is None or missing_outcome.result is None:
            return False
        if not detecting_outcome.detected:
            return False
        if not detects(program.ub_type, detecting_outcome.result.report.kind):
            return False
        if not missing_outcome.result.exited_normally:
            return False
        verdict = is_sanitizer_bug_from_results(detecting_outcome.result,
                                                missing_outcome.result)
        return verdict.is_bug

    return predicate


@dataclass(frozen=True)
class BugSignature:
    """What must survive reduction: UB type, report kind, missing config."""

    ub_type: str
    report_kind: str
    missing: TestConfig


def bug_signature(candidate: FNBugCandidate) -> BugSignature:
    report = (candidate.detecting.result.report
              if candidate.detecting.result is not None else None)
    return BugSignature(ub_type=candidate.program.ub_type.value,
                        report_kind=report.kind if report is not None else "",
                        missing=candidate.missing.config)


def make_signature_predicate(program: UBProgram,
                             signature: BugSignature,
                             configs: Optional[Sequence[TestConfig]] = None,
                             tester: Optional[DifferentialTester] = None) -> Predicate:
    """Build the full-matrix predicate: the candidate must reproduce
    *signature* when differentially tested across *configs* (default: every
    configuration relevant to the program's UB type)."""
    tester = tester or DifferentialTester()
    if configs is None:
        configs = default_configs(program.ub_type,
                                  compilers=tuple(tester.compilers),
                                  opt_levels=tester.opt_levels)
    configs = list(configs)

    def predicate(source: str) -> bool:
        candidate = UBProgram(source=source, ub_type=program.ub_type,
                              seed_index=program.seed_index,
                              description=program.description)
        result = tester.test(candidate, configs=configs)
        for fn in result.fn_candidates:
            if bug_signature(fn) == signature:
                return True
        return False

    return predicate


@dataclass
class ReductionRecord:
    """One crash bucket's reduction, as consumed by the analysis tables."""

    label: str
    ub_type: str
    crash_site: str
    sanitizer: str
    original_tokens: int
    reduced_tokens: int
    predicate_evaluations: int
    duration_seconds: float
    reduced_source: str

    @property
    def token_reduction(self) -> float:
        return 1.0 - self.reduced_tokens / max(1, self.original_tokens)

    def to_json(self) -> dict:
        return {"label": self.label, "ub_type": self.ub_type,
                "crash_site": self.crash_site, "sanitizer": self.sanitizer,
                "original_tokens": self.original_tokens,
                "reduced_tokens": self.reduced_tokens,
                "token_reduction": round(self.token_reduction, 4),
                "predicate_evaluations": self.predicate_evaluations,
                "duration_seconds": round(self.duration_seconds, 3)}


def reduce_fn_candidate(candidate: FNBugCandidate,
                        tester: Optional[DifferentialTester] = None,
                        max_rounds: int = 8
                        ) -> Tuple[FNBugCandidate, ReductionResult]:
    """Reduce one FN-bug candidate's program to a minimal reproducer.

    Returns the rebuilt candidate (program, outcomes and oracle verdict all
    recomputed on the reduced source) plus the raw :class:`ReductionResult`.
    If reduction makes no progress, or the reduced program unexpectedly
    stops reproducing, the original candidate is returned untouched.
    """
    program = candidate.program
    detecting = candidate.detecting.config
    missing = candidate.missing.config
    tester = tester or DifferentialTester()
    reducer = HierarchicalReducer(
        make_fn_bug_predicate(program, detecting, missing, tester=tester),
        max_rounds=max_rounds, cache=tester.cache)
    result = reducer.reduce(program.source)
    if result.reduced_source == program.source:
        return candidate, result

    reduced_program = UBProgram(
        source=result.reduced_source, ub_type=program.ub_type,
        seed_index=program.seed_index, description=program.description,
        generator=program.generator,
        metadata=dict(program.metadata, reduced_from_tokens=result.original_tokens))
    detecting_outcome = tester.run_config(reduced_program, detecting)
    missing_outcome = tester.run_config(reduced_program, missing)
    if detecting_outcome.result is None or missing_outcome.result is None:
        return candidate, result
    verdict = is_sanitizer_bug_from_results(detecting_outcome.result,
                                            missing_outcome.result)
    if not verdict.is_bug:  # pragma: no cover - predicate guarantees this
        return candidate, result
    reduced = FNBugCandidate(program=reduced_program,
                             detecting=detecting_outcome,
                             missing=missing_outcome, verdict=verdict)
    return reduced, result


def record_for(label: str, candidate: FNBugCandidate,
               result: ReductionResult) -> ReductionRecord:
    """Build the analysis-layer record of one candidate's reduction."""
    return ReductionRecord(
        label=label,
        ub_type=candidate.program.ub_type.value,
        crash_site=format_crash_site(candidate.crash_site),
        sanitizer=candidate.missing.config.sanitizer,
        original_tokens=token_count(result.original_source),
        reduced_tokens=token_count(result.reduced_source),
        predicate_evaluations=result.predicate_evaluations,
        duration_seconds=result.duration_seconds,
        reduced_source=result.reduced_source)


# ---------------------------------------------------------------------------
# Marker findings (repro.markers): missed optimizations and regressions
# ---------------------------------------------------------------------------


def make_marker_predicate(finding, oracle=None) -> Predicate:
    """Build the "still exhibits this marker finding" predicate.

    The candidate source (an already-instrumented program — reduction never
    re-plants markers) stays interesting when its reference execution
    still finishes, the finding's marker is still present, still dead on
    that execution, still inside an executed function (missed
    optimizations only), retained by the finding's configuration, and —
    for regressions — still eliminated by the adjacent older release.  A
    candidate whose execution never ends is rejected: its unreached
    marker is not dead, just never got to.  The finding's bucket key
    (kind, compiler, marker site, responsible pass) only depends on the
    marker name and the configs, so it survives any reduction this
    predicate accepts.

    *finding* is a :class:`~repro.markers.engine.MarkerFinding`.  *oracle*
    is the :class:`~repro.markers.oracle.EliminationOracle` that judges the
    candidates: a campaign passes its engine's own (its step budget and
    compilation cache); by default a fresh one is built.
    """
    from repro.markers.engine import MISSED_OPTIMIZATION, REGRESSION
    from repro.markers.instrument import MarkedProgram, marker_calls
    from repro.markers.oracle import EliminationOracle, MarkerConfig

    oracle = oracle if oracle is not None else EliminationOracle()
    target = MarkerConfig(finding.compiler, finding.version, finding.opt_level)
    witness = (MarkerConfig(finding.compiler, finding.prev_version,
                            finding.opt_level)
               if finding.kind == REGRESSION and finding.prev_version is not None
               else None)
    configs = [target] if witness is None else [target, witness]
    name = finding.marker.name

    def predicate(source: str) -> bool:
        marked = MarkedProgram(source=source, base_source=source, sites=(),
                               prefix=finding.prefix,
                               seed_index=finding.seed_index)
        try:
            # The analyzed frontend master (shared through the cache, and
            # already built by the reducer's validity check) serves the
            # function-liveness check and the reference execution; the
            # survey below optimizes a clone of the same master.
            unit, sema = frontend_master(oracle.cache, source)
            reached = oracle.liveness(marked, analyzed=(unit, sema))
            if reached is None:
                return False
            live = frozenset(reached)
            # One survey: a regression's target and witness share the
            # steps their schedules have in common.
            outcomes = oracle.survey(marked, configs)
            outcome = outcomes[target]
            older = outcomes[witness] if witness is not None else None
        except Exception:
            # Candidates that no longer parse, analyze or execute are
            # simply uninteresting.
            return False
        if name in live or name not in outcome.retained:
            return False
        if finding.kind == MISSED_OPTIMIZATION:
            # The enclosing function must still be executed, or the marker
            # degenerates to "dead because never called" — a different bug.
            fn = unit.function_named(finding.marker.function)
            if fn is None or not (set(marker_calls(fn, finding.prefix)) & live):
                return False
        if older is not None and name in older.retained:
            return False
        return True

    return predicate


def reduce_marker_finding(finding, oracle=None, max_rounds: int = 8):
    """Reduce one marker finding's program to a minimal reproducer.

    Returns ``(reduced_finding, ReductionResult)``; the finding is returned
    untouched when reduction makes no progress.  The rebuilt finding keeps
    its bucket key — only ``source`` changes.  *oracle* is passed on to
    :func:`make_marker_predicate`.
    """
    import dataclasses

    from repro.markers.oracle import EliminationOracle

    oracle = oracle if oracle is not None else EliminationOracle()
    reducer = HierarchicalReducer(make_marker_predicate(finding, oracle=oracle),
                                  max_rounds=max_rounds, cache=oracle.cache)
    result = reducer.reduce(finding.source)
    if result.reduced_source == finding.source:
        return finding, result
    reduced = dataclasses.replace(finding, source=result.reduced_source)
    return reduced, result


def marker_record_for(finding, result: ReductionResult) -> ReductionRecord:
    """Build the analysis-layer record of one marker finding's reduction.

    The record reuses the FN-bug schema so
    :func:`repro.analysis.table_marker_survival`'s sibling
    ``table_reduction_quality`` renders both: ``ub_type`` carries the
    finding kind, ``crash_site`` the marker site signature and
    ``sanitizer`` the responsible pass.
    """
    return ReductionRecord(
        label=finding.bucket_slug,
        ub_type=finding.kind,
        crash_site=finding.marker.signature,
        sanitizer=finding.responsible_pass,
        original_tokens=token_count(result.original_source),
        reduced_tokens=token_count(result.reduced_source),
        predicate_evaluations=result.predicate_evaluations,
        duration_seconds=result.duration_seconds,
        reduced_source=result.reduced_source)
