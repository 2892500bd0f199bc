"""Hierarchical parallel test-case reduction (the paper's C-Reduce step).

UBfuzz's bug-reporting workflow reduces every crashing program to a minimal
reproducer before triage.  This package replaces the original single-pass
statement dropper with a multi-pass hierarchical subsystem:

* :mod:`repro.reduction.reducer`    — :class:`HierarchicalReducer`: ddmin
  over top-level declarations and statements, then AST-level simplification
  passes run to fixpoint;
* :mod:`repro.reduction.passes`     — deterministic candidate generation
  (chunked removal, block flattening, loop unswitching, expression
  constant-folding, declaration pruning);
* :mod:`repro.reduction.evaluate`   — serial and pooled candidate
  evaluation; each pool worker owns a predicate with its own
  :class:`~repro.compilers.cache.CompilationCache`;
* :mod:`repro.reduction.predicates` — FN-bug interestingness predicates and
  :func:`reduce_fn_candidate`, the campaign-facing entry point.

Candidate ordering is deterministic and selection is always *first accepted
in order*, so parallel reduction (``jobs=N``) produces a bit-identical
reduced program to serial reduction.
"""

from repro.reduction.evaluate import (
    PoolEvaluator,
    SerialEvaluator,
    make_evaluator,
)
from repro.reduction.predicates import (
    BugSignature,
    ReductionRecord,
    bug_signature,
    make_fn_bug_predicate,
    make_fn_bug_predicate_factory,
    make_marker_predicate,
    make_marker_predicate_factory,
    make_signature_predicate,
    marker_record_for,
    record_for,
    reduce_fn_candidate,
    reduce_marker_finding,
)
from repro.reduction.reducer import (
    HierarchicalReducer,
    ReductionResult,
    token_count,
)

__all__ = [
    "HierarchicalReducer", "ReductionResult", "token_count",
    "BugSignature", "ReductionRecord", "bug_signature",
    "make_fn_bug_predicate", "make_fn_bug_predicate_factory",
    "make_signature_predicate", "record_for", "reduce_fn_candidate",
    "make_marker_predicate", "make_marker_predicate_factory",
    "marker_record_for", "reduce_marker_finding",
    "PoolEvaluator", "SerialEvaluator", "make_evaluator",
]
