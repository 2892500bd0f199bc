"""Shared infrastructure for sanitizer instrumentation passes.

A sanitizer in this reproduction consists of two cooperating halves, just
like in GCC/LLVM:

* an **instrumentation pass** that runs inside the compiler pipeline *after*
  the optimizer (paper Figure 2) and wraps the relevant expressions in
  :class:`~repro.cdsl.ast_nodes.SanitizerCheck` nodes, and
* a **runtime** attached to the produced binary that manages shadow state
  (red zones, scope poisoning, initialized-ness) and decides whether a check
  fires.

Both halves consult the :class:`InstrumentationContext`, which carries the
compilation configuration and — crucially for this paper — the *defect
models* seeded into the simulated compiler version
(:mod:`repro.sanitizers.defects`).  A defect can suppress checks at
instrumentation time, weaken the runtime, or skew report locations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cdsl import ast_nodes as ast
from repro.cdsl.sema import SemanticInfo
from repro.cdsl.source import SourceLocation
from repro.sanitizers.defects import Defect, defects_for
from repro.vm.errors import SanitizerReport

#: ASan's default red-zone size in this reproduction.  Matches the paper's
#: observation that overflows are only detectable within 32 bytes of the
#: object (§2.1).
ASAN_REDZONE = 32


@dataclass
class InstrumentationContext:
    """Everything a sanitizer pass/runtime needs to know about the build."""

    sanitizer: str
    compiler: str = "gcc"
    version: int = 14
    opt_level: str = "-O0"
    defects: List[Defect] = field(default_factory=list)

    @classmethod
    def for_configuration(cls, sanitizer: str, compiler: str, version: int,
                          opt_level: str,
                          registry: Optional[Sequence[Defect]] = None
                          ) -> "InstrumentationContext":
        """Build a context with the defects active for this configuration."""
        active = defects_for(compiler, version, sanitizer, opt_level, registry)
        return cls(sanitizer=sanitizer, compiler=compiler, version=version,
                   opt_level=opt_level, defects=active)

    # -- defect hooks ----------------------------------------------------------

    def should_skip_check(self, check_kind: str, expr: ast.Expr,
                          detail: dict) -> Optional[Defect]:
        """Return the defect that suppresses this check, if any."""
        for defect in self.defects:
            if defect.suppresses(check_kind, expr, detail):
                return defect
        return None

    def runtime_overrides(self) -> Dict[str, object]:
        overrides: Dict[str, object] = {}
        for defect in self.defects:
            overrides.update(defect.runtime_overrides)
        return overrides

    def line_skew(self, check_kind: str) -> int:
        for defect in self.defects:
            if defect.line_skew and (not defect.check_kinds
                                     or check_kind in defect.check_kinds):
                return defect.line_skew
        return 0


class SanitizerPass:
    """Base class of the three instrumentation passes."""

    name = "sanitizer"

    def instrument(self, unit: ast.TranslationUnit, sema: SemanticInfo,
                   ctx: InstrumentationContext) -> ast.TranslationUnit:
        """Insert check nodes into *unit* (modified in place and returned)."""
        raise NotImplementedError

    def build_runtime(self, ctx: InstrumentationContext):
        """Create the runtime object attached to the compiled binary."""
        raise NotImplementedError


def make_check(kind: str, inner: ast.Expr, ctx: InstrumentationContext,
               detail: Optional[dict] = None) -> ast.Expr:
    """Wrap *inner* in a check of *kind*, honouring defects and line skew."""
    detail = dict(detail or {})
    defect = ctx.should_skip_check(kind, inner, detail)
    if defect is not None:
        # The defect "forgets" this check: leave the expression bare.
        return inner
    loc = inner.loc
    skew = ctx.line_skew(kind)
    if skew and loc.is_known:
        loc = SourceLocation(loc.line + skew, loc.col)
    check = ast.SanitizerCheck(kind, inner, ctx.sanitizer, detail, loc=loc)
    check.ctype = inner.ctype
    return check


def make_report(sanitizer: str, kind: str, loc: SourceLocation,
                message: str = "", **details) -> SanitizerReport:
    return SanitizerReport(sanitizer=sanitizer, kind=kind, location=loc,
                           message=message, details=dict(details))
