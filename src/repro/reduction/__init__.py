"""Hierarchical test-case reduction (the paper's C-Reduce step).

UBfuzz's bug-reporting workflow reduces every crashing program to a minimal
reproducer before triage.  This package replaces the original single-pass
statement dropper with a multi-pass hierarchical subsystem:

* :mod:`repro.reduction.reducer`    — :class:`HierarchicalReducer`: ddmin
  over top-level declarations and statements, then AST-level simplification
  passes run to fixpoint;
* :mod:`repro.reduction.passes`     — deterministic candidate generation
  (chunked removal, block flattening, loop unswitching, expression
  constant-folding, declaration pruning);
* :mod:`repro.reduction.predicates` — FN-bug and marker interestingness
  predicates, :func:`reduce_fn_candidate` and
  :func:`reduce_marker_finding`, the campaign-facing entry points.

Candidates are generated in deterministic order and judged one at a time,
in process, by the caller's predicate; the first accepted one is applied.
A campaign passes its own differential tester (or elimination oracle), so
reduction reuses the campaign's compilation cache and judges candidates
with the campaign's defect registry and step budget.
"""

from repro.reduction.predicates import (
    BugSignature,
    ReductionRecord,
    bug_signature,
    make_fn_bug_predicate,
    make_marker_predicate,
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
    "make_fn_bug_predicate", "make_signature_predicate", "record_for",
    "reduce_fn_candidate", "make_marker_predicate", "marker_record_for",
    "reduce_marker_finding",
]
