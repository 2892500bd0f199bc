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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cdsl import ast_nodes as ast
from repro.cdsl.sema import SemanticInfo
from repro.cdsl.visitor import fast_clone


@dataclass
class OptimizationContext:
    """What the passes of one build share: the coverage tracker they
    record into, if any.  Passes read nothing else, which is what lets
    one walk share steps across compilers, releases and levels."""

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
    """An ordered list of passes, iterated in rounds to a fixed point."""

    def __init__(self, passes: List[OptimizationPass], max_iterations: int = 2) -> None:
        self.passes = list(passes)
        self.max_iterations = max_iterations

    @property
    def pass_names(self) -> List[str]:
        return [p.name for p in self.passes]

    def run(self, unit: ast.TranslationUnit, sema: SemanticInfo,
            ctx: OptimizationContext) -> List[str]:
        """Run the pipeline on *unit* in place; returns the names of passes
        that changed the AST.  It is the one-pipeline case of
        :func:`run_pipelines`, so it makes no clone."""
        return list(run_pipelines(unit, sema, [self], ctx)[0][1])


#: Next steps of a pipeline that are not passes: start the next round, or
#: stop with the unit as it is.
_NEXT_ROUND = object()
_STOP = object()


def _next_step(pipeline: PassPipeline, round_: int, position: int,
               changed: bool):
    """The step *pipeline* takes at *position* of round *round_* (both
    0-based), given whether that round has changed the unit so far: the
    name of the pass it runs next, :data:`_NEXT_ROUND` or :data:`_STOP`."""
    if round_ < pipeline.max_iterations:
        if position < len(pipeline.passes):
            return pipeline.passes[position].name
        if changed and round_ + 1 < pipeline.max_iterations:
            return _NEXT_ROUND
    return _STOP


def run_pipelines(unit: ast.TranslationUnit, sema: SemanticInfo,
                  pipelines: Sequence[PassPipeline], ctx: OptimizationContext
                  ) -> List[Tuple[ast.TranslationUnit, Tuple[str, ...]]]:
    """Run several pipelines from *unit* as one trie walk; returns
    ``(unit, passes_run)`` per pipeline, in order.

    Each pipeline runs as if it ran alone: in rounds over its passes,
    stopping after a round in which no pass changed the unit or after
    ``max_iterations`` rounds, and ``passes_run`` names each pass that
    changed the unit, in execution order.  Pipelines whose executed steps
    so far are identical (the same passes in the same rounds) share them,
    so each shared step runs once.  Where their next steps differ, or one
    stops while another goes on, each branch but one goes on with a
    :func:`~repro.cdsl.visitor.fast_clone` of the unit.  *unit* itself is
    transformed in place and serves one result, and pipelines that stop
    at the same step get the same unit.

    All pipelines share *ctx*, which passes read only for its
    ``coverage``: a step that runs once for several pipelines records its
    coverage once.
    """
    results: list = [None] * len(pipelines)
    # A branch: the pipelines whose executed steps are identical so far,
    # their unit, the passes that changed it, the round, the position in
    # that round, and whether the round has changed the unit.
    branches = [(list(range(len(pipelines))), unit, (), 0, 0, False)]
    while branches:
        members, current, passes_run, round_, position, changed = \
            branches.pop()
        while True:
            steps: Dict[object, List[int]] = {}
            for index in members:
                steps.setdefault(_next_step(pipelines[index], round_,
                                            position, changed),
                                 []).append(index)
            stopped = steps.pop(_STOP, ())
            for index in stopped:
                results[index] = (current, passes_run)
            groups = list(steps.items())
            if not groups:
                break
            # The unit goes on with one group, unless it is the result of
            # the pipelines that stopped; every other group gets a clone.
            if not stopped:
                step, members = groups.pop()
            for _, group in groups:
                branches.append((group, fast_clone(current), passes_run,
                                 round_, position, changed))
            if stopped:
                break
            if step is _NEXT_ROUND:
                round_, position, changed = round_ + 1, 0, False
                continue
            opt_pass = pipelines[members[0]].passes[position]
            if opt_pass.run(current, sema, ctx):
                changed = True
                passes_run += (opt_pass.name,)
                ctx.cover_point(f"{opt_pass.name}.changed")
            position += 1
    return results


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
