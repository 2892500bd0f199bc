"""Generic AST traversal utilities.

Two tools are provided:

* :func:`walk` — preorder iteration over every node of a subtree;
* :class:`NodeTransformer` — rebuilds children from the values returned by
  ``visit_*`` methods, which is how optimizer passes rewrite programs.

There is also :func:`clone` for deep-copying a program before mutating it,
and :func:`find_nodes` / :func:`parent_map` helpers used by expression
matching and shadow statement insertion.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, Iterator, List, Optional, Type, TypeVar

from repro.cdsl import ast_nodes as ast

N = TypeVar("N", bound=ast.Node)


def walk(node: ast.Node) -> Iterator[ast.Node]:
    """Yield *node* and all of its descendants in preorder.

    The walk keeps an explicit stack instead of recursing.  A node's
    children are read when the walk resumes after yielding that node, so a
    caller may replace the node's child lists while the walk is at it (the
    reducer's ``drop_nodes`` does) and the walk descends into the new ones.
    """
    stack = [node]
    pop, push = stack.pop, stack.append
    node_type = ast.Node
    while stack:
        node = pop()
        yield node
        for name in reversed(node._fields):
            value = getattr(node, name, None)
            if isinstance(value, node_type):
                push(value)
            elif isinstance(value, (list, tuple)):
                for item in reversed(value):
                    if isinstance(item, node_type):
                        push(item)


def find_nodes(root: ast.Node, node_type: Type[N],
               predicate: Optional[Callable[[N], bool]] = None) -> List[N]:
    """Collect all descendants of *root* of the given type."""
    out: List[N] = []
    for node in walk(root):
        if isinstance(node, node_type) and (predicate is None or predicate(node)):
            out.append(node)
    return out


def clone(node: N) -> N:
    """Deep-copy a subtree so it can be mutated independently of the seed.

    Node ids are preserved, which lets callers find "the same" node in the
    clone (the UB generator relies on this to locate its mutation site).
    """
    return copy.deepcopy(node)


def fast_clone(node: N) -> N:
    """Structurally copy a subtree without ``copy.deepcopy`` overhead.

    The copy follows the declared node layout: a slot named in a class's
    ``_fields`` holds its children, and those nodes and the lists holding
    them are copied (ids preserved, aliasing respected via a memo, so a
    node referenced twice is copied once).  Every other slot value —
    source locations, types, resolved symbols — is *shared* with the
    original, except plain dicts such as ``SanitizerCheck.detail``, which
    get a shallow copy.  Each node class gets one copier, generated from
    its ``__slots__`` on first use.  Its users:

    * the optimizer's working copy of a cached frontend master.  The
      master was analyzed when it was built, so the copy starts with
      fresh annotations; the passes only read them (symbol identity and
      declarations, types), and the copy, which becomes the optimized
      master, is analyzed again when something first needs its sema;
    * code that re-runs semantic analysis on the copy before anything
      consults symbols or types (the UB generator's profiler), so sharing
      the stale annotations is safe;
    * code that only rewrites node fields and prints the copy (shadow
      statement insertion, the reduction passes, and the marker planter,
      which plants into a copy of a validated seed's unit);
    * the sanitizer overlay of a compile, which instruments a copy of a
      cached optimized master after asking for that master's analysis.
      Those annotations are fresh, so the copy needs no re-analysis: the
      overlay and the VM only read the shared symbols, scopes and types
      (the VM keys storage by ``symbol.uid``), and new nodes get their
      own ``ctype``.

    Prefer :func:`clone` when the copy's non-node attributes must be
    independent too.
    """
    return _CLONERS[node.__class__](node, {})


class _Cloners(dict):
    """Node class -> its copier, generated on first lookup.  Any other
    class maps to :func:`_share`, so copiers dispatch on every child value
    without testing its type first.  Copiers call each other through this
    table, never through :func:`fast_clone`, so that wrapping
    ``fast_clone`` sees top-level copies only."""

    def __missing__(self, cls: type):
        cloner = _make_cloner(cls) if issubclass(cls, ast.Node) else _share
        self[cls] = cloner
        return cloner


def _share(value, memo):
    return value


def _make_cloner(cls: type):
    """Generate the copier of node class *cls* from its slots, the way
    ``dataclasses`` generates ``__init__``."""
    children = set(cls._fields)
    name = f"clone_{cls.__name__}"
    lines = [f"def {name}(node, memo):",
             "    key = id(node)",
             "    new = memo.get(key)",
             "    if new is not None:",
             "        return new",
             "    new = new_node(cls)",
             "    memo[key] = new"]
    for klass in reversed(cls.__mro__):
        for slot in vars(klass).get("__slots__", ()):
            lines.append(f"    value = node.{slot}")
            if slot in children:
                lines += [
                    "    if value.__class__ is list:",
                    f"        new.{slot} = [cloners[item.__class__](item, memo)"
                    " for item in value]",
                    "    else:",
                    f"        new.{slot} = cloners[value.__class__](value, memo)"]
            else:
                lines.append(f"    new.{slot} = dict(value)"
                             " if value.__class__ is dict else value")
    lines.append("    return new")
    namespace = {"cls": cls, "cloners": _CLONERS, "new_node": object.__new__}
    exec("\n".join(lines), namespace)
    return namespace[name]


_CLONERS = _Cloners()


def clone_fresh(node: N) -> N:
    """Deep-copy a subtree and give every copied node a new id.

    Use this when duplicating an expression *within* one program (e.g. a
    safe-math wrapper reusing a divisor): node ids must stay unique inside a
    single translation unit.
    """
    new = copy.deepcopy(node)
    for child in walk(new):
        child.node_id = next(ast._node_counter)
    return new


def parent_map(root: ast.Node) -> Dict[int, ast.Node]:
    """Map each node id to its parent node (the root has no entry)."""
    parents: Dict[int, ast.Node] = {}
    for node in walk(root):
        for child in node.children():
            parents[child.node_id] = node
    return parents


def count_nodes(root: ast.Node) -> int:
    return sum(1 for _ in walk(root))


class NodeTransformer:
    """Rewriting visitor.

    ``visit_*`` methods return the replacement node (possibly the original),
    ``None`` to delete an item from its containing list, or a list of nodes
    to splice in its place.  Returning a list for a single-node field raises
    ``TypeError``; list items that are not nodes are kept, and tuples are
    left alone.

    Dispatch goes through one table per transformer class, keyed by node
    class and filled on first use.  A node class's entry is the
    transformer's ``visit_<Name>`` (an inherited one counts) or the generic
    visitor generated for that node class from its ``_fields``.  Generic
    visitors reach each child through the same table, so a traversal makes
    one Python call per node; :meth:`visit` is the entry point, not a hook
    to override.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._visitors = _VisitTable(cls)

    def visit(self, node: ast.Node):
        return self._visitors[node.__class__](self, node)

    def generic_visit(self, node: ast.Node):
        return _GENERIC_VISITORS[node.__class__](self, node)


class _VisitTable(dict):
    """Node class -> its visitor, for one transformer class."""

    def __init__(self, transformer: type) -> None:
        super().__init__()
        self.transformer = transformer

    def __missing__(self, cls: type):
        visitor = getattr(self.transformer, f"visit_{cls.__name__}", None)
        if visitor is None:
            visitor = _GENERIC_VISITORS[cls]
        self[cls] = visitor
        return visitor


class _GenericVisitors(dict):
    """Node class -> its generic visitor, generated on first lookup and
    shared by every transformer class."""

    def __missing__(self, cls: type):
        visitor = _make_generic_visitor(cls)
        self[cls] = visitor
        return visitor


def _make_generic_visitor(cls: type):
    """Generate the generic visitor of node class *cls* from its
    ``_fields``, the way :func:`_make_cloner` generates copiers."""
    name = f"generic_visit_{cls.__name__}"
    lines = [f"def {name}(self, node):"]
    if cls._fields:
        lines.append("    visitors = self._visitors")
    for field_name in cls._fields:
        message = (f"cannot splice a list into single-node field "
                   f"{cls.__name__}.{field_name}")
        lines += [
            f"    value = node.{field_name}",
            "    if isinstance(value, Node):",
            "        value = visitors[value.__class__](self, value)",
            "        if isinstance(value, list):",
            f"            raise TypeError({message!r})",
            f"        node.{field_name} = value",
            "    elif isinstance(value, list):",
            "        items = []",
            "        for item in value:",
            "            if isinstance(item, Node):",
            "                item = visitors[item.__class__](self, item)",
            "                if item is None:",
            "                    continue",
            "                if isinstance(item, list):",
            "                    items.extend(item)",
            "                    continue",
            "            items.append(item)",
            f"        node.{field_name} = items"]
    lines.append("    return node")
    namespace = {"Node": ast.Node}
    exec("\n".join(lines), namespace)
    return namespace[name]


_GENERIC_VISITORS = _GenericVisitors()
NodeTransformer._visitors = _VisitTable(NodeTransformer)


def replace_node(root: ast.Node, target: ast.Node, replacement: ast.Node) -> bool:
    """Replace *target* (found by identity) with *replacement* in the tree.

    Returns True if the target was found.  Used by shadow statement
    insertion to swap an expression for its instrumented form.
    """
    for node in walk(root):
        for field_name in node._fields:
            value = getattr(node, field_name, None)
            if value is target:
                setattr(node, field_name, replacement)
                return True
            if isinstance(value, list):
                for i, item in enumerate(value):
                    if item is target:
                        value[i] = replacement
                        return True
    return False


def insert_before(root: ast.Node, anchor_stmt: ast.Stmt,
                  new_stmts: List[ast.Stmt]) -> bool:
    """Insert statements immediately before *anchor_stmt* in its block.

    The anchor must live in a statement list (a compound statement or the
    top-level declaration list); returns False when no such list is found.
    """
    for node in walk(root):
        for field_name in node._fields:
            value = getattr(node, field_name, None)
            if isinstance(value, list):
                for i, item in enumerate(value):
                    if item is anchor_stmt:
                        value[i:i] = list(new_stmts)
                        return True
    return False


def enclosing_statement(root: ast.Node, expr: ast.Expr,
                        parents: Optional[Dict[int, ast.Node]] = None
                        ) -> Optional[ast.Stmt]:
    """Return the innermost statement that contains *expr* (by identity).

    *parents* is ``parent_map(root)``; callers looking up many expressions
    of one unchanged tree pass it in so the map is built once, not per call.
    """
    if parents is None:
        parents = parent_map(root)
    node: ast.Node = expr
    while node.node_id in parents:
        node = parents[node.node_id]
        if isinstance(node, ast.Stmt):
            return node
    return None
