"""Shadow statement insertion — ``Insert`` of Algorithm 1 (§3.2.3).

Takes a seed program and one :class:`~repro.core.synthesis.ShadowMutation`
and produces a new, self-contained UB program:

1. clone the seed AST with :func:`~repro.cdsl.visitor.fast_clone` (node
   ids are preserved by the clone),
2. locate the matched expression and its enclosing statement in the clone,
3. apply the expression rewrite (``a[x]`` → ``a[x + hat]`` ...),
4. insert the shadow statements immediately before the enclosing statement
   (or append them to a named block for use-after-scope), and
5. print the mutated AST back to C source, which the compilers under test
   re-parse — exactly like the real tool writes out a mutated ``.c`` file.

The printed source is parsed and analyzed once more to check it is still
valid C.  That check is :func:`~repro.compilers.compiler.frontend_master`:
given the campaign's :class:`~repro.compilers.cache.CompilationCache`, the
analyzed master it builds is the very artifact the compiles of the program
start from instead of a second parse and analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cdsl import ast_nodes as ast
from repro.cdsl.parser import parse_program
from repro.cdsl.printer import print_program
from repro.cdsl.visitor import fast_clone, insert_before, replace_node, walk
from repro.compilers.cache import CompilationCache
from repro.compilers.compiler import frontend_master
from repro.core.synthesis import ShadowMutation
from repro.core.ub_types import UBType, sanitizers_for
from repro.utils.errors import CompilationError, GenerationError


@dataclass
class UBProgram:
    """A generated program containing (by construction) exactly one UB."""

    source: str
    ub_type: UBType
    seed_index: int = -1
    description: str = ""
    generator: str = "ubfuzz"
    metadata: dict = field(default_factory=dict)

    @property
    def target_sanitizers(self) -> tuple:
        """The sanitizers that should detect this program's UB (Table 2)."""
        return sanitizers_for(self.ub_type)

    def parse(self) -> ast.TranslationUnit:
        return parse_program(self.source)


def apply_mutation(unit: ast.TranslationUnit, mutation: ShadowMutation,
                   seed_index: int = -1,
                   cache: Optional[CompilationCache] = None) -> UBProgram:
    """Apply *mutation* to a clone of *unit* and return the UB program.

    The program is validated by parsing its source, through *cache* when
    one is given and else through a cache of its own (see the module
    docstring).
    """
    mutated = fast_clone(unit)
    by_id: Dict[int, ast.Node] = {node.node_id: node for node in walk(mutated)}

    expr = by_id.get(mutation.match.expr.node_id)
    if expr is None:
        raise GenerationError("matched expression not found in the clone")

    _apply_augmentations(mutated, expr, mutation)

    if mutation.new_stmts:
        anchor = by_id.get(mutation.match.stmt.node_id) \
            if mutation.match.stmt is not None else None
        if anchor is None or not insert_before(mutated, anchor, mutation.new_stmts):
            raise GenerationError("could not insert shadow statements")

    if mutation.append_to_block is not None:
        block_id, stmts = mutation.append_to_block
        block = by_id.get(block_id)
        if not isinstance(block, ast.CompoundStmt):
            raise GenerationError("target block for insertion not found")
        block.stmts.extend(stmts)

    source = print_program(mutated)
    _check_still_valid(source, cache)
    return UBProgram(source=source, ub_type=mutation.ub_type,
                     seed_index=seed_index, description=mutation.description)


def _apply_augmentations(root: ast.Node, expr: ast.Expr,
                         mutation: ShadowMutation) -> None:
    for field_name, aux_name in mutation.augment:
        aux_ref = ast.Identifier(aux_name)
        if field_name == "__self__":
            replacement = ast.BinaryOp("+", expr, aux_ref, loc=expr.loc)
            if not replace_node(root, expr, replacement):
                raise GenerationError("could not rewrite the matched expression")
            expr = replacement
            continue
        current = getattr(expr, field_name, None)
        if not isinstance(current, ast.Expr):
            raise GenerationError(f"matched expression has no operand "
                                  f"{field_name!r} to augment")
        setattr(expr, field_name,
                ast.BinaryOp("+", current, aux_ref, loc=current.loc))


def _check_still_valid(source: str,
                       cache: Optional[CompilationCache] = None) -> None:
    """The mutated program must still be statically valid C (it only has
    *runtime* undefined behaviour).

    The check is the frontend lookup of *source*, which parses and
    analyzes it once; *cache* keeps the analyzed master.
    """
    try:
        frontend_master(cache if cache is not None else CompilationCache(),
                        source)
    except CompilationError as exc:
        raise GenerationError(f"mutation produced an invalid program: {exc}") from exc
