"""Crash-site mapping — the test oracle of the paper (§3.3, Algorithm 2).

Given two binaries compiled from the same UB program, where running one
(``b_c``) crashes with a sanitizer report and the other (``b_n``) exits
normally, decide whether the discrepancy is a **sanitizer false-negative
bug** or merely the effect of **compiler optimization**:

* extract the crash site — the ``(line, offset)`` where ``b_c`` aborted
  (Definition 2): the VM's ``crash_site``, the UB expression's own site;
* if that site is also executed by ``b_n``, the optimizer did not remove the
  UB expression, so the sanitizer in ``b_n`` missed it → a bug;
* otherwise the UB was optimized away → not a sanitizer bug.

This is one algorithm over two kinds of input.  :func:`is_sanitizer_bug`
takes binaries and follows Algorithm 2 literally: it runs ``b_c`` for its
crash site and steps ``b_n`` under the LLDB-like
:class:`~repro.vm.trace.Debugger` looking for it.
:func:`is_sanitizer_bug_from_results` takes already-collected execution
results and looks the crash site up in ``b_n``'s executed-site set, which
is what the fuzzing campaign uses to avoid re-running binaries.  Both read
the same two facts, so they agree on every pair where ``b_n`` exits
without a report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.vm.errors import ExecutionResult
from repro.vm.trace import Debugger


@dataclass
class OracleVerdict:
    """The oracle's decision for one (crashing, non-crashing) binary pair."""

    is_bug: bool
    crash_site: Optional[tuple[int, int]]
    reason: str

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.is_bug


def format_crash_site(crash_site: Optional[tuple]) -> str:
    """Canonical string form of a crash site: ``"line:col"`` or ``"?"``.

    The single spelling used everywhere a site becomes part of an
    identifier — corpus dedup bucket keys, reduction records, report
    labels — so the producers and consumers can never drift apart.
    """
    return f"{crash_site[0]}:{crash_site[1]}" if crash_site else "?"


def is_sanitizer_bug(crashing_binary, normal_binary) -> bool:
    """Algorithm 2, literally: run the crashing binary for its crash site,
    then step the normal binary's executed sites looking for it."""
    crash_site = crashing_binary.run().crash_site
    if crash_site is None:
        return False

    debugger = Debugger()
    debugger.init(normal_binary)
    while debugger.is_alive():
        if (debugger.curr_line, debugger.curr_offset) == crash_site:
            return True
        debugger.next_instruction()
    return False


def is_sanitizer_bug_from_results(crashing: ExecutionResult,
                                  normal: ExecutionResult) -> OracleVerdict:
    """Crash-site mapping over already-collected execution results."""
    if not crashing.crashed:
        return OracleVerdict(False, None, "the reference binary did not crash")
    if normal.crashed:
        return OracleVerdict(False, normal.crash_site,
                             "both binaries crashed: no discrepancy")
    crash_site = crashing.crash_site
    if crash_site is None:
        return OracleVerdict(False, None, "no crash site information (missing -g?)")
    if crash_site in normal.executed_sites:
        return OracleVerdict(True, crash_site,
                             "crash site executed by the non-crashing binary: "
                             "the sanitizer missed the UB")
    return OracleVerdict(False, crash_site,
                         "crash site not executed: the optimizer removed the UB")


def classify_discrepancy(crashing: ExecutionResult,
                         normal: ExecutionResult) -> str:
    """Convenience label: "sanitizer-bug", "optimization" or "no-discrepancy"."""
    if not crashing.crashed or normal.crashed:
        return "no-discrepancy"
    verdict = is_sanitizer_bug_from_results(crashing, normal)
    return "sanitizer-bug" if verdict.is_bug else "optimization"
