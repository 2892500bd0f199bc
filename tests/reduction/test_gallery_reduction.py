"""Acceptance tests on the fn_bug_gallery crash set.

The gallery (examples/fn_bug_gallery.py) pairs the paper's hand-written
Figure 12 reproductions with FN-bug crashes mined from a miniature
campaign.  On that crash set the hierarchical reducer must:

* preserve the oracle verdict — UB type, detected report kind, missing
  sanitizer configuration — for every entry, and
* shrink the set by a median of at least 60% of lexical tokens.
"""

import statistics
import sys
from pathlib import Path

import pytest

from repro.core import UBProgram
from repro.core.crash_site import is_sanitizer_bug_from_results
from repro.core.differential import DifferentialTester
from repro.core.ub_types import detects
from repro.reduction import HierarchicalReducer, make_fn_bug_predicate
from repro.reduction.reducer import token_count

# Tier-2: the gallery reduces a whole crash set (a ~15s session fixture
# plus per-entry reductions); CI runs it in the dedicated slow job.
pytestmark = pytest.mark.slow

EXAMPLES_DIR = str(Path(__file__).resolve().parents[2] / "examples")
if EXAMPLES_DIR not in sys.path:  # import the gallery definitions themselves
    sys.path.insert(0, EXAMPLES_DIR)

import fn_bug_gallery  # noqa: E402


@pytest.fixture(scope="module")
def tester():
    return DifferentialTester(opt_levels=("-O0", "-O2"))


@pytest.fixture(scope="module")
def crash_set(tester):
    """The gallery crash set: oracle-confirmed figure entries + 5 mined
    campaign crashes.

    One figure entry (Fig. 12e) pairs configurations of *different*
    compilers whose discrepancy the crash-site oracle cannot confirm even
    on the original program; reduction only applies to oracle-confirmed FN
    candidates, so it is excluded here (the gallery still displays it).
    """
    figures = [
        (title, program, detecting, missing)
        for title, program, detecting, missing in fn_bug_gallery.figure_entries()
        if make_fn_bug_predicate(program, detecting, missing,
                                 tester=tester)(program.source)
    ]
    assert len(figures) == 3
    entries = figures + fn_bug_gallery.campaign_crash_set(max_crashes=5)
    assert len(entries) == 8
    return entries


@pytest.fixture(scope="module")
def reductions(crash_set, tester):
    out = []
    for title, program, detecting, missing in crash_set:
        predicate = make_fn_bug_predicate(program, detecting, missing,
                                          tester=tester)
        result = HierarchicalReducer(predicate).reduce(program.source)
        out.append((title, program, detecting, missing, result))
    return out


def test_verdict_preserved_for_every_case(reductions, tester):
    for title, program, detecting, missing, result in reductions:
        reduced = UBProgram(source=result.reduced_source,
                            ub_type=program.ub_type)
        detecting_outcome = tester.run_config(reduced, detecting)
        missing_outcome = tester.run_config(reduced, missing)
        # Same UB type still detected by the detecting configuration...
        assert detecting_outcome.detected, title
        assert detects(program.ub_type,
                       detecting_outcome.result.report.kind), title
        # ...still missed by the same sanitizer configuration...
        assert missing_outcome.result.exited_normally, title
        # ...and the crash-site mapping oracle still calls it a bug.
        verdict = is_sanitizer_bug_from_results(detecting_outcome.result,
                                                missing_outcome.result)
        assert verdict.is_bug, title


def test_median_token_reduction_at_least_60_percent(reductions):
    fractions = [result.token_reduction
                 for _, _, _, _, result in reductions]
    median = statistics.median(fractions)
    assert median >= 0.60, (
        f"median token reduction {median:.0%} < 60% "
        f"(per-entry: {[f'{f:.0%}' for f in fractions]})")


def test_campaign_crashes_reduce_by_90_percent(reductions):
    """The mined csmith-style programs (the realistic workload) all shrink
    dramatically — the figure entries are hand-minimal already."""
    campaign = [result for title, _, _, _, result in reductions
                if title.startswith("campaign find")]
    assert len(campaign) == 5
    assert all(result.token_reduction >= 0.85 for result in campaign)


def test_crash_set_is_deterministic():
    first = fn_bug_gallery.campaign_crash_set(max_crashes=2)
    second = fn_bug_gallery.campaign_crash_set(max_crashes=2)
    assert [(t, p.source) for t, p, _, _ in first] == \
        [(t, p.source) for t, p, _, _ in second]


def test_reduction_effort_is_recorded(reductions):
    for _, _, _, _, result in reductions:
        assert result.predicate_evaluations > 0
        assert result.candidates_generated >= result.predicate_evaluations
        assert result.duration_seconds >= 0
        assert token_count(result.reduced_source) == result.reduced_tokens
