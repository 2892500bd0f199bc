"""Runtime artifacts of program execution: sanitizer reports and signals.

The :class:`SanitizerReport` lives here (rather than in
:mod:`repro.sanitizers`) because it is produced *at run time* by the VM when
an inserted check fires; the sanitizer passes and runtimes depend on the VM,
not the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cdsl.source import SourceLocation


@dataclass
class SanitizerReport:
    """What a sanitizer prints when a check fires (and aborts the process).

    ``sanitizer`` is one of ``"asan"``, ``"ubsan"``, ``"msan"``;
    ``kind`` is the report headline, e.g. ``"stack-buffer-overflow"``,
    ``"signed-integer-overflow"``, ``"use-of-uninitialized-value"``.
    """

    sanitizer: str
    kind: str
    location: SourceLocation
    message: str = ""
    details: dict = field(default_factory=dict)

    def summary(self) -> str:
        return (f"=={self.sanitizer.upper()}== ERROR: {self.kind} "
                f"at {self.location} {self.message}".rstrip())


class ControlFlowSignal(Exception):
    """Base class for interpreter-internal non-error control flow."""


class BreakSignal(ControlFlowSignal):
    pass


class ContinueSignal(ControlFlowSignal):
    pass


class ReturnSignal(ControlFlowSignal):
    def __init__(self, value) -> None:
        super().__init__()
        self.value = value


class ExitSignal(ControlFlowSignal):
    """Raised by the ``exit()`` builtin."""

    def __init__(self, code: int) -> None:
        super().__init__()
        self.code = code


class SanitizerAbort(Exception):
    """Raised when a sanitizer check fires; carries the report."""

    def __init__(self, report: SanitizerReport) -> None:
        super().__init__(report.summary())
        self.report = report


class ExecutionTimeout(Exception):
    """Raised when the step budget of an execution is exhausted."""

    def __init__(self, steps: int) -> None:
        super().__init__(f"execution exceeded {steps} steps")
        self.steps = steps


class VMFault(Exception):
    """An internal VM error (a bug in the toolchain, not in the program)."""


@dataclass
class ExecutionResult:
    """Outcome of running a compiled binary on the VM.

    ``status`` is one of ``"ok"``, ``"sanitizer_report"``, ``"timeout"`` or
    ``"vm_error"``.  ``crash_site`` is the ``(line, offset)`` where a run
    aborted with a sanitizer report: the report's location, or the last
    executed source site when the report has none.  ``executed_sites`` is
    the set of every site the run executed.  These two are what crash-site
    mapping reads; a run keeps no ordered site stream (pass the
    interpreter a ``site_callback`` for one).
    """

    status: str
    exit_code: Optional[int] = None
    report: Optional[SanitizerReport] = None
    crash_site: Optional[tuple[int, int]] = None
    executed_sites: frozenset = frozenset()
    stdout: str = ""
    steps: int = 0
    error: Optional[str] = None

    @property
    def crashed(self) -> bool:
        return self.status == "sanitizer_report"

    @property
    def exited_normally(self) -> bool:
        return self.status == "ok"
