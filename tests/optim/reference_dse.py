"""The reference dead-symbol analysis that the DSE tests compare against.

``reference_dead_symbols`` is the three-walk analysis that the one-walk
``repro.optim.dse._dead_symbols`` replaced: one walk collects the
address-taken symbols, one the declared locals, and a recursive descent
the reads.  The read rules are the same in both, so a difference in the
tests points at the one-walk traversal.
"""

from __future__ import annotations

from repro.cdsl import ast_nodes as ast
from repro.cdsl import ctypes_ as ct
from repro.cdsl.visitor import walk
from repro.optim.passes import declared_volatile, symbols_with_address_taken


def reference_dead_symbols(fn: ast.FunctionDecl) -> set:
    """Local variables that are written but never read (and never escape)."""
    escaping = symbols_with_address_taken(fn.body)
    reads: set = set()
    declared: dict = {}

    def note_reads(node: ast.Node) -> None:
        """Collect symbols read by *node*, skipping pure store-target bases."""
        if isinstance(node, ast.Assignment):
            note_reads(node.value)
            if node.op != "=":
                # Compound assignment also reads the target.
                _collect_identifiers(node.target, reads)
            else:
                _note_target_index_reads(node.target, reads)
            return
        if isinstance(node, ast.IncDec):
            # x++ both reads and writes x; treat as a read to stay sound.
            _collect_identifiers(node.operand, reads)
            return
        if isinstance(node, ast.Identifier):
            if node.symbol is not None:
                reads.add(node.symbol.uid)
            return
        for child in node.children():
            note_reads(child)

    for node in walk(fn.body):
        if isinstance(node, ast.VarDecl) and node.symbol is not None:
            declared[node.symbol.uid] = node.symbol

    note_reads(fn.body)

    dead = set()
    for uid, symbol in declared.items():
        if uid in reads or uid in escaping or declared_volatile(symbol):
            continue
        if symbol.storage != "local":
            continue
        if isinstance(symbol.ctype, (ct.ArrayType, ct.IntType, ct.PointerType)):
            dead.add(uid)
    return dead


def _collect_identifiers(expr: ast.Node, into: set) -> None:
    for node in walk(expr):
        if isinstance(node, ast.Identifier) and node.symbol is not None:
            into.add(node.symbol.uid)


def _note_target_index_reads(target: ast.Expr, into: set) -> None:
    """For a store target like ``a[i].f``, the index/pointer expressions are
    reads but the stored-to base variable itself is not."""
    if isinstance(target, ast.ArraySubscript):
        _collect_identifiers(target.index, into)
        _note_target_index_reads(target.base, into)
    elif isinstance(target, ast.MemberAccess):
        if target.arrow:
            # p->f reads the pointer p.
            _collect_identifiers(target.base, into)
        else:
            _note_target_index_reads(target.base, into)
    elif isinstance(target, ast.Deref):
        _collect_identifiers(target.pointer, into)
    # A plain Identifier target is a pure write: no reads recorded.
