"""The hierarchical multi-pass reducer.

:class:`HierarchicalReducer` shrinks a crashing program to a (near) minimal
reproducer while a caller-supplied *interestingness predicate* keeps
accepting the candidate — for sanitizer FN bugs, "the same sanitizer still
misses the same UB that another configuration still detects" (see
:func:`repro.reduction.predicates.make_fn_bug_predicate`).

The reduction runs coarse-to-fine, each phase to fixpoint:

1. **ddmin over top-level declarations** — whole functions and globals go
   first, in exponentially shrinking chunks;
2. **ddmin over statements** — every statement list in the program,
   hierarchically (a nested block is removable as a unit *and* its
   statements are individually removable);
3. **AST passes** — compound-block flattening, loop unswitching to
   straight-line code, expression simplification to constants, and unused
   declaration pruning, repeated until none of them makes progress.

Every candidate must re-parse and pass semantic analysis before the
predicate is consulted.  Candidates are judged one at a time, in the
passes' deterministic order and in this process, and the first accepted
one is applied: most steps accept an early candidate, so judging more of
them at once would mostly be wasted work.

The reducer runs one frontend per candidate.  The validity check is a
frontend lookup in the :class:`~repro.compilers.cache.CompilationCache`
the predicate compiles through, so the predicate's compiles start from
the analyzed master it built, and each pass reads the master of the
current program instead of parsing it again.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set

from repro.cdsl import ast_nodes as ast
from repro.cdsl.lexer import tokenize
from repro.cdsl.parser import parse_program
from repro.compilers.cache import CompilationCache, source_fingerprint
from repro.reduction import passes
from repro.telemetry import runtime as telemetry
from repro.utils.errors import ReductionError, ReproError

logger = logging.getLogger(__name__)

Predicate = Callable[[str], bool]


def token_count(source: str) -> int:
    """Number of lexical tokens in *source* (the EOF marker excluded)."""
    try:
        return max(0, len(tokenize(source)) - 1)
    except ReproError:
        return len(source.split())


@dataclass
class ReductionResult:
    """Outcome of one reduction: the final source plus effort counters."""

    original_source: str
    reduced_source: str
    predicate_evaluations: int
    candidates_generated: int
    edits_applied: int
    rounds: int
    duration_seconds: float

    @property
    def original_tokens(self) -> int:
        return token_count(self.original_source)

    @property
    def reduced_tokens(self) -> int:
        return token_count(self.reduced_source)

    @property
    def token_reduction(self) -> float:
        """Fraction of tokens removed: ``1 - reduced/original``."""
        before = max(1, self.original_tokens)
        return 1.0 - self.reduced_tokens / before


class HierarchicalReducer:
    """Multi-pass hierarchical delta debugging over the C-subset AST.

    Args:
        predicate: the interestingness predicate, ``source -> bool``.  Must
            be a pure function of the candidate source; it may close over
            a shared tester and its
            :class:`~repro.compilers.cache.CompilationCache`.
        max_rounds: bound on coarse-to-fine fixpoint rounds.
        simplify_cap: expression sites tried per simplification sweep.
        cache: the compilation cache the predicate compiles through (see
            the module docstring); by default the reducer keeps its own.

    Example::

        predicate = make_fn_bug_predicate(program, detecting, missing)
        result = HierarchicalReducer(predicate).reduce(program.source)
        print(result.reduced_source, result.token_reduction)
    """

    #: The AST-pass schedule of phase 3, in application order.
    AST_PASSES = ("flatten", "unswitch", "simplify", "prune")

    def __init__(self, predicate: Predicate, max_rounds: int = 8,
                 simplify_cap: int = 64,
                 cache: Optional[CompilationCache] = None) -> None:
        self.predicate = predicate
        self.max_rounds = max_rounds
        self.simplify_cap = simplify_cap
        self.cache = cache if cache is not None else CompilationCache()

    # -- public ---------------------------------------------------------------------

    def reduce(self, source: str) -> ReductionResult:
        """Reduce *source* to a minimal program the predicate still accepts.

        The input program itself is never re-validated: a predicate that
        rejects every candidate simply returns the input unchanged.
        """
        try:
            self._frontend(source)
        except ReproError as exc:
            raise ReductionError(f"cannot reduce invalid source: {exc}") from exc
        start = time.perf_counter()
        self._current = source
        self._edits = 0
        self._candidates = 0
        self._evaluations = 0
        self._rejected: Set[str] = set()
        rounds = 0
        with telemetry.stage("reduce"):
            for _ in range(self.max_rounds):
                rounds += 1
                progress = self._ddmin(passes.toplevel_items)
                progress |= self._ddmin(passes.statement_items)
                for pass_name in self.AST_PASSES:
                    progress |= self._exhaust(pass_name)
                if not progress:
                    break
        result = ReductionResult(
            original_source=source,
            reduced_source=self._current,
            predicate_evaluations=self._evaluations,
            candidates_generated=self._candidates,
            edits_applied=self._edits,
            rounds=rounds,
            duration_seconds=time.perf_counter() - start)
        registry = telemetry.metrics()
        if registry is not None:
            registry.inc("reduce.candidates", result.candidates_generated)
            registry.inc("reduce.evaluations", result.predicate_evaluations)
            registry.inc("reduce.accepted", result.edits_applied)
            registry.inc("reduce.rejected",
                         max(0, result.predicate_evaluations
                             - result.edits_applied))
        logger.debug("reduced %d -> %d tokens in %d rounds (%.2fs)",
                     result.original_tokens, result.reduced_tokens,
                     rounds, result.duration_seconds)
        return result

    # -- phases ---------------------------------------------------------------------

    def _ddmin(self, items_fn: Callable[[ast.TranslationUnit], List[int]]) -> bool:
        """Delta debugging over the node ids *items_fn* enumerates."""
        changed = False
        granularity = 2
        while True:
            unit, _ = self._frontend(self._current)
            items = items_fn(unit)
            if not items:
                break
            granularity = min(granularity, len(items))
            chunks = _split(items, granularity)
            candidates = [passes.drop_nodes(unit, set(chunk)) for chunk in chunks]
            index = self._first_accepted(candidates)
            if index is not None:
                self._apply(candidates[index])
                changed = True
                granularity = max(2, granularity - 1)
            elif granularity >= len(items):
                break
            else:
                granularity = min(len(items), granularity * 2)
        return changed

    def _exhaust(self, pass_name: str) -> bool:
        """Apply one AST pass repeatedly until no candidate is accepted."""
        changed = False
        while True:
            unit, _ = self._frontend(self._current)
            if pass_name == "flatten":
                candidates = list(passes.flatten_candidates(unit))
            elif pass_name == "unswitch":
                candidates = list(passes.unswitch_candidates(unit))
            elif pass_name == "simplify":
                candidates = list(passes.simplify_candidates(
                    unit, cap=self.simplify_cap))
            else:
                candidates = list(passes.prune_candidates(unit))
            index = self._first_accepted(candidates)
            if index is None:
                return changed
            self._apply(candidates[index])
            changed = True

    # -- candidate screening ----------------------------------------------------------

    def _first_accepted(self, candidates: Sequence[str]) -> Optional[int]:
        """Index (into *candidates*) of the first acceptable candidate.

        Candidates are judged in order and the scan stops at the first one
        the predicate accepts.  Candidates that do not change the program,
        were already rejected, or fail to re-parse and analyze never reach
        the predicate.
        """
        self._candidates += len(candidates)
        for index, candidate in enumerate(candidates):
            if candidate == self._current or candidate in self._rejected:
                continue
            if self._is_valid(candidate):
                self._evaluations += 1
                if self.predicate(candidate):
                    return index
            self._rejected.add(candidate)
        return None

    def _apply(self, candidate: str) -> None:
        self._current = candidate
        self._edits += 1

    # -- frontend -------------------------------------------------------------------

    def _frontend(self, source: str):
        """The cache's analyzed master of *source*: ``(unit, sema)``.  The
        passes read it and edit clones."""
        return self.cache.frontend(source_fingerprint(source),
                                   lambda: parse_program(source))

    def _is_valid(self, source: str) -> bool:
        """Whether *source* parses and passes semantic analysis."""
        try:
            self._frontend(source)
        except ReproError:
            return False
        except RecursionError:  # deeply nested candidates - reject, don't crash
            return False
        return True


def _split(items: List[int], parts: int) -> List[List[int]]:
    """Split *items* into *parts* contiguous, non-empty chunks."""
    parts = max(1, min(parts, len(items)))
    size, remainder = divmod(len(items), parts)
    chunks: List[List[int]] = []
    position = 0
    for i in range(parts):
        width = size + (1 if i < remainder else 0)
        chunks.append(items[position:position + width])
        position += width
    return chunks
