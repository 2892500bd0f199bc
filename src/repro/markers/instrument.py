"""Marker-planting instrumentation (DEAD-style liveness markers).

The marker engine's ground instrumentation: every branch arm and loop body
of a program receives a call to a unique, declared-but-undefined function
(``__ubfm_<N>_()``).  Marker calls are externally-visible side effects, so a
*correct* optimizer may only remove one by proving its whole region dead —
which turns "which markers does each (compiler, version, opt-pipeline)
configuration eliminate?" into a direct probe of optimization quality:

* a marker the reference execution never reaches but ``-O2``/``-O3``
  retains is a **missed optimization**;
* a marker release N-1 eliminates but release N retains is an
  **optimizer regression**;
* a marker the reference execution *does* reach but some configuration
  eliminates would be a miscompilation (**unsound elimination**) — the
  semantic-equivalence property suite pins this to never happen.

Planting is deterministic: markers are numbered in preorder statement
order, so re-instrumenting the same source always yields the same names at
the same sites (the parallel campaign and the reduction predicate rely on
this).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.cdsl import ast_nodes as ast
from repro.cdsl import ctypes_ as ct
from repro.cdsl.parser import parse_program
from repro.cdsl.printer import print_program
from repro.cdsl.visitor import fast_clone, walk

#: Default marker-name prefix ("UBfuzz marker"); names are ``__ubfm_<N>_``.
DEFAULT_MARKER_PREFIX = "__ubfm_"

#: Context kinds a marker can be planted in.
CONTEXT_IF_THEN = "if-then"
CONTEXT_IF_ELSE = "if-else"
CONTEXT_LOOP_BODY = "loop-body"
#: Function-entry markers record which functions an execution enters; the
#: engine uses them to tell "dead because the function is never called"
#: (not eliminable — functions have external linkage) from a genuinely
#: missed optimization inside an executed function.
CONTEXT_FN_ENTRY = "fn-entry"


@dataclass(frozen=True)
class MarkerSite:
    """One planted marker: its name and the spot it instruments.

    ``line`` is the 1-based line of the marker call in the *instrumented*
    source; ``context`` is one of ``if-then`` / ``if-else`` / ``loop-body``.
    The triple ``(function, context, name)`` is the site signature used by
    finding dedup — stable under reduction, which never renames calls.
    """

    name: str
    function: str
    context: str
    line: int = 0

    @property
    def signature(self) -> str:
        return f"{self.function}:{self.context}:{self.name}"


@dataclass
class MarkedProgram:
    """An instrumented program: source text plus its marker sites."""

    source: str
    base_source: str
    sites: Tuple[MarkerSite, ...]
    prefix: str = DEFAULT_MARKER_PREFIX
    seed_index: int = 0
    metadata: dict = field(default_factory=dict)

    @property
    def marker_names(self) -> Tuple[str, ...]:
        return tuple(site.name for site in self.sites)

    def site_named(self, name: str) -> Optional[MarkerSite]:
        for site in self.sites:
            if site.name == name:
                return site
        return None


class MarkerPlanter:
    """Plants liveness markers into every branch arm and loop body."""

    def __init__(self, prefix: str = DEFAULT_MARKER_PREFIX) -> None:
        self.prefix = prefix

    def plant(self, source: Union[str, ast.TranslationUnit],
              seed_index: int = 0,
              base_source: Optional[str] = None) -> MarkedProgram:
        """Instrument *source* and return the marked program.

        String input is parsed fresh and is its own ``base_source``.  A
        tree given with *base_source*, the text it prints as, is the
        caller's to give up: markers go into it in place.  The marker
        engine plants the generator's own tree this way (see
        :meth:`~repro.markers.engine.MarkerEngine._marked_seed`).  A tree
        given alone — such as a validated seed's
        :attr:`~repro.seedgen.SeedProgram.analyzed` unit — is never
        mutated: markers go into a :func:`~repro.cdsl.visitor.fast_clone`
        of it, and ``base_source`` is its printed text.  Planting reads
        only the tree's statement structure, never its annotations or
        locations, and each site's line is found in the printed marked
        text, in one pass over it; so every tree that prints as the same
        text, its parse or the tree it was printed from, plants to the
        same marked program.
        """
        if isinstance(source, str):
            unit, base_source = parse_program(source), source
        elif base_source is None:
            unit, base_source = fast_clone(source), print_program(source)
        else:
            unit = source
        planted: List[_PlantedMarker] = []
        for fn in unit.functions:
            if fn.body is not None:
                name = f"{self.prefix}{len(planted)}_"
                planted.append(_PlantedMarker(name=name, function=fn.name,
                                              context=CONTEXT_FN_ENTRY))
                fn.body.stmts.insert(0, ast.ExprStmt(ast.Call(name, [])))
                self._plant_block(fn.body, fn.name, planted)
        # Prototypes first: markers must be declared before the first call.
        prototypes = [
            ast.FunctionDecl(p.name, ct.VOID, [], None) for p in planted
        ]
        unit.decls[0:0] = prototypes
        text = print_program(unit)
        lines = _lines_of_calls(text, self.prefix)
        sites = tuple(
            MarkerSite(name=p.name, function=p.function, context=p.context,
                       line=lines.get(p.name, 0))
            for p in planted)
        return MarkedProgram(source=text, base_source=base_source,
                             sites=sites, prefix=self.prefix,
                             seed_index=seed_index)

    # -- internals --------------------------------------------------------------

    def _plant_block(self, block: ast.CompoundStmt, function: str,
                     planted: List["_PlantedMarker"]) -> None:
        for stmt in block.stmts:
            self._plant_stmt(stmt, function, planted)

    def _plant_stmt(self, stmt: ast.Stmt, function: str,
                    planted: List["_PlantedMarker"]) -> None:
        if isinstance(stmt, ast.IfStmt):
            stmt.then = self._with_marker(stmt.then, function,
                                          CONTEXT_IF_THEN, planted)
            stmt.otherwise = self._with_marker(stmt.otherwise, function,
                                               CONTEXT_IF_ELSE, planted)
        elif isinstance(stmt, (ast.WhileStmt, ast.ForStmt)):
            stmt.body = self._with_marker(stmt.body, function,
                                          CONTEXT_LOOP_BODY, planted)
        elif isinstance(stmt, ast.CompoundStmt):
            self._plant_block(stmt, function, planted)

    def _with_marker(self, stmt: Optional[ast.Stmt], function: str,
                     context: str,
                     planted: List["_PlantedMarker"]) -> ast.CompoundStmt:
        """Wrap *stmt* (possibly None: a missing else) in a compound whose
        first statement is a fresh marker call, then recurse into it."""
        name = f"{self.prefix}{len(planted)}_"
        planted.append(_PlantedMarker(name=name, function=function,
                                      context=context))
        call = ast.ExprStmt(ast.Call(name, []))
        if stmt is None:
            inner: List[ast.Stmt] = []
        elif isinstance(stmt, ast.CompoundStmt):
            inner = stmt.stmts
        else:
            inner = [stmt]
        block = ast.CompoundStmt([call] + inner,
                                 loc=stmt.loc if stmt is not None
                                 else ast.UNKNOWN_LOCATION)
        for child in inner:
            self._plant_stmt(child, function, planted)
        return block


@dataclass(frozen=True)
class _PlantedMarker:
    name: str
    function: str
    context: str


def marker_calls(root: ast.Node, prefix: str = DEFAULT_MARKER_PREFIX
                 ) -> List[str]:
    """Names of the marker calls below *root*, in order of appearance.

    Prototypes don't count — only :class:`~repro.cdsl.ast_nodes.Call`
    nodes, i.e. markers the optimizer actually kept in the emitted code.
    """
    return [node.name for node in walk(root)
            if isinstance(node, ast.Call) and node.name.startswith(prefix)]


def _lines_of_calls(text: str, prefix: str) -> Dict[str, int]:
    """The 1-based line of each marker call ``<prefix><N>_();`` in *text*:
    the first line whose text contains it, found in one pass."""
    call = re.compile(re.escape(prefix) + r"\d+_(?=\(\);)")
    lines: Dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in call.finditer(line):
            lines.setdefault(match.group(), lineno)
    return lines
