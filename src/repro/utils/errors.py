"""Common exception hierarchy for the repro package.

Every error raised by the toolchain derives from :class:`ReproError` so that
callers (the fuzzer, the differential tester, examples) can catch one base
class and keep running a campaign when a single program misbehaves.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro toolchain."""


class LexError(ReproError):
    """Raised by the lexer when the input contains an invalid token."""

    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ParseError(ReproError):
    """Raised by the parser on a syntax error."""

    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class SemaError(ReproError):
    """Raised by semantic analysis (undeclared identifier, bad types, ...)."""


class CompilationError(ReproError):
    """Raised when a simulated compiler cannot produce a binary."""


class GenerationError(ReproError):
    """Raised by program generators when a request cannot be satisfied."""


class ProfilingError(ReproError):
    """Raised when an execution profile cannot be collected."""


class ReductionError(ReproError):
    """Raised by the test-case reducer."""
