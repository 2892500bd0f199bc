"""Execution profiling — ``Profile`` of Algorithm 1 (paper §3.2.2).

The profiler instruments a *clone* of the seed program with
:class:`~repro.cdsl.ast_nodes.ProfileHook` wrappers around every operand of
every matched expression, runs it once on the VM, and packages the
observations as an :class:`ExecutionProfile` exposing the paper's queries:

* ``Q_liv`` — was the matched expression executed (is it in the live region)?
* ``Q_val`` — the observed value of an operand;
* ``Q_mem`` — the memory object (buffer range, kind, freed/dead state) an
  observed pointer points into;
* ``Q_scp`` — scope information, via the statement-level execution order.
  The profiling run hands every executed site to the interpreter's
  ``site_callback``, which keeps the index of each site's first execution
  among the run's first :data:`SITE_ORDER_LIMIT` executed sites.

One profiling run serves every UB type (the paper's implementation note:
"the profiling overhead for all UB types is identical").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cdsl import ast_nodes as ast
from repro.cdsl.sema import analyze
from repro.cdsl.visitor import fast_clone, walk
from repro.core.matching import MatchedExpr
from repro.utils.errors import ProfilingError
from repro.vm.errors import ExecutionResult
from repro.vm.interpreter import Interpreter
from repro.vm.profiler import ObservedBuffer, ProfileCollector, ValueObservation

#: ``Q_scp`` orders statements by their first execution among this many
#: executed sites of the profiling run; a statement first executed later
#: has no order.  The bound keeps the generator's inputs unchanged: without
#: it, long-running seeds answer differently for many statements, and the
#: use-after-scope programs planted from those answers can change.
SITE_ORDER_LIMIT = 20_000


@dataclass
class ExecutionProfile:
    """The dynamic profile of one seed program run (Definition 1).

    ``site_order`` maps each site first executed among the run's first
    :data:`SITE_ORDER_LIMIT` executed sites to the index of that first
    execution.
    """

    collector: ProfileCollector
    result: ExecutionResult
    hooked_keys: Dict[str, List[str]] = field(default_factory=dict)
    site_order: Dict[Tuple[int, int], int] = field(default_factory=dict)

    # -- the paper's queries -----------------------------------------------------

    def q_liv(self, match: MatchedExpr) -> bool:
        """True if the matched expression was executed on the profiled input."""
        for key in self.hooked_keys.get(match.key, []):
            if self.collector.was_executed(key):
                return True
        if match.stmt is not None and match.stmt.loc.is_known:
            return match.stmt.loc.site() in self.result.executed_sites
        return False

    def q_val(self, match: MatchedExpr, role: str) -> Optional[int]:
        """The first observed value of one operand of the match."""
        obs = self._first(match, role)
        return obs.value if obs is not None else None

    def q_mem(self, match: MatchedExpr, role: str) -> Optional[ObservedBuffer]:
        """The memory object the observed operand points into (or None)."""
        obs = self._first(match, role)
        return obs.buffer if obs is not None else None

    def q_scp_executed(self, stmt: ast.Stmt) -> bool:
        """Was *stmt* executed during the profiled run?"""
        return stmt.loc.is_known and stmt.loc.site() in self.result.executed_sites

    def q_scp_order(self, stmt: ast.Stmt) -> Optional[int]:
        """Index of the first execution of *stmt* among the run's first
        :data:`SITE_ORDER_LIMIT` executed sites, or None."""
        if not stmt.loc.is_known:
            return None
        return self.site_order.get(stmt.loc.site())

    # -- helpers --------------------------------------------------------------------

    def _first(self, match: MatchedExpr, role: str) -> Optional[ValueObservation]:
        return self.collector.first_observation(f"{match.key}:{role}")

    def observations(self, match: MatchedExpr, role: str) -> List[ValueObservation]:
        return self.collector.observations(f"{match.key}:{role}")


class Profiler:
    """Instruments and runs a seed program to collect its execution profile."""

    def __init__(self, max_steps: int = 200_000) -> None:
        self.max_steps = max_steps

    def profile(self, unit: ast.TranslationUnit,
                matches: Iterable[MatchedExpr]) -> ExecutionProfile:
        """Profile *unit* with hooks for every operand of every match.

        The unit is cloned before instrumentation, so the caller's AST is
        untouched; node ids are preserved by the clone, which is how hooks
        attached in the clone map back to the caller's matches.  The clone
        is a :func:`fast_clone` (semantic analysis re-runs on it below), and
        one slot index over it makes every hook a single slot write.
        """
        matches = list(matches)
        instrumented = fast_clone(unit)
        hooked_keys: Dict[str, List[str]] = {}
        by_id, slots = _index(instrumented)

        for match in matches:
            keys: List[str] = []
            for role, operand in match.operands.items():
                if not isinstance(operand, ast.Expr):
                    continue
                target = by_id.get(operand.node_id)
                if target is None or id(target) not in slots:
                    continue
                key = f"{match.key}:{role}"
                hook = ast.ProfileHook(key, target, loc=target.loc)
                slot = slots[id(target)]
                parent, field_name, position = slot
                if position is None:
                    setattr(parent, field_name, hook)
                else:
                    getattr(parent, field_name)[position] = hook
                # The hook takes the operand's slot and the operand moves
                # under the hook, so a second match on the same operand
                # wraps this hook, not the bare operand.
                slots[id(hook)] = slot
                slots[id(target)] = (hook, "inner", None)
                by_id[operand.node_id] = hook
                keys.append(key)
            hooked_keys[match.key] = keys

        try:
            sema = analyze(instrumented)
        except Exception as exc:
            raise ProfilingError(f"profiling instrumentation broke the "
                                 f"program: {exc}") from exc
        collector = ProfileCollector()
        site_order: Dict[Tuple[int, int], int] = {}
        ticks = itertools.count()

        def record_order(site: Tuple[int, int]) -> None:
            index = next(ticks)
            if index < SITE_ORDER_LIMIT:
                site_order.setdefault(site, index)

        interpreter = Interpreter(instrumented, sema, max_steps=self.max_steps,
                                  profile_collector=collector,
                                  site_callback=record_order)
        result = interpreter.run()
        if result.status == "vm_error":
            raise ProfilingError(f"profiling run failed: {result.error}")
        return ExecutionProfile(collector=collector, result=result,
                                hooked_keys=hooked_keys, site_order=site_order)


#: Where a node is held: (parent, field name, list position or None).
_Slot = Tuple[ast.Node, str, Optional[int]]


def _index(root: ast.Node) -> Tuple[Dict[int, ast.Node], Dict[int, _Slot]]:
    """One preorder pass over *root*: node id → node (the last node seen
    per id), and ``id(node)`` → the first slot holding it in preorder over
    ``_fields`` — the slot :func:`~repro.cdsl.visitor.replace_node` would
    rewrite."""
    by_id: Dict[int, ast.Node] = {}
    slots: Dict[int, _Slot] = {}
    for node in walk(root):
        by_id[node.node_id] = node
        for field_name in node._fields:
            value = getattr(node, field_name, None)
            if isinstance(value, ast.Node):
                slots.setdefault(id(value), (node, field_name, None))
            elif isinstance(value, list):
                for position, item in enumerate(value):
                    if isinstance(item, ast.Node):
                        slots.setdefault(id(item), (node, field_name, position))
    return by_id, slots
