"""The optimization pass framework.

Simulated compilers run a pipeline of AST-level optimization passes *before*
the sanitizer instrumentation pass, mirroring the real pipeline of Figure 2
in the paper.  Because optimizers assume programs are UB-free, these passes
may legally delete or simplify away the very expression that triggers UB in
a mutated program — which is the paper's Challenge 2 and the reason the
crash-site mapping oracle exists.

Every pass must be semantics-preserving for *valid* programs; what it does
to a program whose execution has UB is unconstrained (and that freedom is
exactly what we are modelling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cdsl import ast_nodes as ast
from repro.cdsl.sema import SemanticInfo


@dataclass
class OptimizationContext:
    """Configuration shared by all passes of one compilation."""

    compiler: str = "gcc"
    version: int = 14
    opt_level: str = "-O0"
    coverage: object = None

    def cover_branch(self, site: str, taken: bool) -> None:
        if self.coverage is not None:
            self.coverage.hit_branch(f"optim.{site}", taken)

    def cover_point(self, site: str) -> None:
        if self.coverage is not None:
            self.coverage.hit_point(f"optim.{site}")


class OptimizationPass:
    """Base class for AST-level optimization passes."""

    name = "pass"

    def run(self, unit: ast.TranslationUnit, sema: SemanticInfo,
            ctx: OptimizationContext) -> bool:
        """Transform *unit* in place; return True if anything changed."""
        raise NotImplementedError


class PassPipeline:
    """An ordered list of passes, optionally iterated to a fixed point."""

    def __init__(self, passes: List[OptimizationPass], max_iterations: int = 2) -> None:
        self.passes = list(passes)
        self.max_iterations = max_iterations

    @property
    def pass_names(self) -> List[str]:
        return [p.name for p in self.passes]

    def run(self, unit: ast.TranslationUnit, sema: SemanticInfo,
            ctx: OptimizationContext) -> List[str]:
        """Run the pipeline; returns the names of passes that changed the AST."""
        changed_passes: List[str] = []
        for _ in range(self.max_iterations):
            changed_this_round = False
            for opt_pass in self.passes:
                if opt_pass.run(unit, sema, ctx):
                    changed_this_round = True
                    changed_passes.append(opt_pass.name)
                    ctx.cover_point(f"{opt_pass.name}.changed")
            if not changed_this_round:
                break
        return changed_passes


# ---------------------------------------------------------------------------
# Shared helpers used by several passes
# ---------------------------------------------------------------------------

def is_pure_expr(expr: Optional[ast.Expr]) -> bool:
    """True if evaluating *expr* has no side effects (no stores or calls).

    Memory reads are considered pure: a UB-free program's reads cannot trap,
    so the optimizer may drop them — the key behaviour behind Figure 3.
    """
    if expr is None:
        return True
    if isinstance(expr, (ast.Assignment, ast.IncDec, ast.Call)):
        return False
    for child in expr.children():
        if isinstance(child, ast.Expr) and not is_pure_expr(child):
            return False
        if isinstance(child, ast.Node) and not isinstance(child, ast.Expr):
            # Initializer lists etc. — treat conservatively.
            if not all(is_pure_expr(c) for c in child.children()
                       if isinstance(c, ast.Expr)):
                return False
    return True


def literal_suffix(ctype) -> str:
    """The literal suffix that preserves *ctype* across re-analysis.

    Optimizer passes materialize constants whose type must survive the
    semantic re-analysis that follows every pipeline (sema derives an
    integer literal's type from its suffix alone).  Types at or below
    ``int`` promote to ``int`` value-preservingly, so a bare literal is
    fine; ``unsigned int``/``long``/``unsigned long`` need their suffix or
    a fold like ``(unsigned int)5 → 5`` silently flips the expression to
    signed arithmetic — a miscompilation the semantic-equivalence property
    suite caught on generated seeds.
    """
    from repro.cdsl import ctypes_ as ct
    if not isinstance(ctype, ct.IntType) or ctype.bits < 32:
        return ""
    if ctype.signed:
        return "l" if ctype.bits > 32 else ""
    return "ul" if ctype.bits > 32 else "u"


def typed_literal(value: int, template: ast.Expr) -> ast.IntLiteral:
    """An integer literal carrying *template*'s type, suffixed to keep it."""
    literal = ast.IntLiteral(value, suffix=literal_suffix(template.ctype),
                             loc=template.loc)
    literal.ctype = template.ctype
    return literal


def symbols_with_address_taken(root: ast.Node) -> set:
    """UIDs of symbols whose address is taken anywhere under *root*."""
    from repro.cdsl.visitor import walk
    taken = set()
    for node in walk(root):
        if isinstance(node, ast.AddressOf):
            target = node.operand
            # &x, &a[i], &s.f — the underlying variable escapes.
            base = target
            while isinstance(base, (ast.ArraySubscript, ast.MemberAccess)):
                base = base.base
            if isinstance(base, ast.Identifier) and base.symbol is not None:
                taken.add(base.symbol.uid)
    return taken


def declared_volatile(symbol) -> bool:
    decl = getattr(symbol, "decl", None)
    qualifiers = getattr(decl, "qualifiers", ()) if decl is not None else ()
    return "volatile" in qualifiers
