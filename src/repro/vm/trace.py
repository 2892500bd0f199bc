"""The debugger used by the literal form of crash-site mapping.

The paper uses LLDB's Python API to single-step compiled binaries and record
the source ``(line, offset)`` of every executed instruction (Algorithm 2,
``GetExecutedSites``).  Our VM reports every executed site, in order, to
the interpreter's ``site_callback``; the :class:`Debugger` class records
that stream for one run and exposes it through an LLDB-like stepping
interface so the oracle code mirrors the paper's algorithm.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.vm.errors import ExecutionResult


class Debugger:
    """An LLDB-flavoured wrapper over one recorded execution.

    The debugger "runs" the target binary when :meth:`init` is called (the
    VM interprets the whole program and hands every executed site to the
    debugger's ``site_callback``), then exposes the recorded instruction
    stream through ``is_alive`` / ``next_instruction`` / ``curr_line`` /
    ``curr_offset``, mirroring the paper's Algorithm 2.
    """

    def __init__(self) -> None:
        self._trace: List[tuple[int, int]] = []
        self._index = 0
        self._result: Optional[ExecutionResult] = None

    def init(self, binary) -> None:
        """Launch *binary*: anything whose ``run(site_callback=...)``
        returns an ExecutionResult."""
        self._trace = []
        self._result = binary.run(site_callback=self._trace.append)
        self._index = 0

    @property
    def result(self) -> ExecutionResult:
        if self._result is None:
            raise RuntimeError("Debugger.init() has not been called")
        return self._result

    def is_alive(self) -> bool:
        return self._index < len(self._trace)

    @property
    def curr_line(self) -> int:
        return self._trace[self._index][0]

    @property
    def curr_offset(self) -> int:
        return self._trace[self._index][1]

    def next_instruction(self) -> None:
        self._index += 1


def get_executed_sites(binary) -> List[tuple[int, int]]:
    """Algorithm 2's ``GetExecutedSites``: all executed (line, offset) pairs.

    Uses the :class:`Debugger` stepping interface; the returned list is in
    execution order and may contain duplicates (loops).
    """
    debugger = Debugger()
    debugger.init(binary)
    sites: List[tuple[int, int]] = []
    while debugger.is_alive():
        sites.append((debugger.curr_line, debugger.curr_offset))
        debugger.next_instruction()
    return sites


def format_trace(sites: Sequence[tuple[int, int]], limit: int = 20) -> str:
    """Human-readable rendering of the tail of a site stream."""
    tail = list(sites)[-limit:]
    return " -> ".join(f"{line}:{col}" for line, col in tail)
