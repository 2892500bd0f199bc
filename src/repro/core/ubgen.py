"""The UB program generator — Algorithm 1 of the paper.

Given a seed program and a target UB type:

1. ``GetMatchedExpr`` — statically find all code constructs matching the UB
   (:mod:`repro.core.matching`);
2. ``Profile`` — instrument and run the seed once, collecting the dynamic
   profile (:mod:`repro.core.profile`);
3. ``SynShadowStmt`` + ``Insert`` — for every live matched expression,
   synthesize a shadow statement and insert it, yielding one UB program per
   match (:mod:`repro.core.synthesis`, :mod:`repro.core.insertion`).

As in the paper, a single profiling run serves all UB types of one seed, and
every generated program contains exactly one UB of the requested type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.cdsl import ast_nodes as ast
from repro.cdsl.parser import parse_program
from repro.cdsl.sema import analyze
from repro.compilers.cache import CompilationCache
from repro.core.insertion import UBProgram, apply_mutation
from repro.core.matching import MatchedExpr, get_matched_exprs
from repro.core.profile import Profiler
from repro.core.synthesis import synthesize
from repro.core.ub_types import ALL_UB_TYPES, UBType
from repro.seedgen.csmith import SeedProgram
from repro.telemetry import runtime as telemetry
from repro.utils.errors import GenerationError, ProfilingError
from repro.utils.rng import RandomSource, derive_seed

SeedLike = Union[str, SeedProgram, ast.TranslationUnit]


@dataclass
class GenerationStats:
    """Bookkeeping for one seed: matches found / mutations synthesized."""

    matches: Dict[UBType, int] = field(default_factory=dict)
    live_matches: Dict[UBType, int] = field(default_factory=dict)
    generated: Dict[UBType, int] = field(default_factory=dict)
    profile_failed: bool = False


class UBGenerator:
    """Shadow-statement-insertion UB generator (the paper's Algorithm 1).

    Args:
        seed: master RNG seed; generation is a pure function of
            ``(seed, seed program, UB types)``.
        max_programs_per_type: cap on UB programs per (seed, UB type).
        profiler: execution profiler used to pick mutation sites.
        cache: compilation cache to validate generated programs through;
            a campaign passes the cache its compilers share, so each
            program's validation parse and analysis is the frontend
            artifact its compiles reuse.

    A validated :class:`~repro.seedgen.SeedProgram` is read from the
    analyzed parse it carries (:attr:`~repro.seedgen.SeedProgram.analyzed`)
    instead of being parsed again.  Generation never mutates that unit:
    the profiler and :func:`~repro.core.insertion.apply_mutation` work on
    :func:`~repro.cdsl.visitor.fast_clone` copies.  Text and seeds without
    a parse are parsed and analyzed here; a caller's AST is analyzed in
    place.

    Example::

        programs = UBGenerator(seed=1).generate(seed_program,
                                                UBType.USE_AFTER_FREE)
    """

    def __init__(self, seed: int = 0, max_programs_per_type: Optional[int] = None,
                 profiler: Optional[Profiler] = None,
                 cache: Optional[CompilationCache] = None) -> None:
        self.seed = seed
        self.max_programs_per_type = max_programs_per_type
        self.profiler = profiler or Profiler()
        self.cache = cache

    # -- public API ------------------------------------------------------------------

    def generate(self, seed_program: SeedLike, ub_type: UBType,
                 seed_index: int = 0) -> List[UBProgram]:
        """Generate UB programs of one type from one seed (Algorithm 1)."""
        programs, _stats = self._generate_types(seed_program, [ub_type], seed_index)
        return programs.get(ub_type, [])

    def generate_all(self, seed_program: SeedLike,
                     ub_types: Sequence[UBType] = ALL_UB_TYPES,
                     seed_index: int = 0) -> Dict[UBType, List[UBProgram]]:
        """Generate UB programs for every requested type from one seed."""
        programs, _stats = self._generate_types(seed_program, ub_types, seed_index)
        return programs

    def generate_with_stats(self, seed_program: SeedLike,
                            ub_types: Sequence[UBType] = ALL_UB_TYPES,
                            seed_index: int = 0
                            ) -> tuple[Dict[UBType, List[UBProgram]], GenerationStats]:
        return self._generate_types(seed_program, ub_types, seed_index)

    # -- internals --------------------------------------------------------------------

    def _generate_types(self, seed_program: SeedLike, ub_types: Sequence[UBType],
                        seed_index: int
                        ) -> tuple[Dict[UBType, List[UBProgram]], GenerationStats]:
        unit, resolved_index = self._resolve_seed(seed_program, seed_index)
        stats = GenerationStats()
        rng = RandomSource(derive_seed(self.seed, resolved_index))

        matches_by_type: Dict[UBType, List[MatchedExpr]] = {}
        all_matches: List[MatchedExpr] = []
        for ub_type in ub_types:
            matches = get_matched_exprs(unit, ub_type)
            matches_by_type[ub_type] = matches
            stats.matches[ub_type] = len(matches)
            all_matches.extend(matches)

        programs: Dict[UBType, List[UBProgram]] = {ub: [] for ub in ub_types}
        if not all_matches:
            return programs, stats

        try:
            profile = self.profiler.profile(unit, all_matches)
        except ProfilingError:
            telemetry.inc("ubgen.profile_failures")
            stats.profile_failed = True
            return programs, stats

        for ub_type in ub_types:
            live = 0
            for match in matches_by_type[ub_type]:
                if not profile.q_liv(match):
                    continue
                live += 1
                if (self.max_programs_per_type is not None
                        and len(programs[ub_type]) >= self.max_programs_per_type):
                    continue
                # Fork the RNG on the match's *source position* (stable
                # across re-parses of the same seed), not on node ids (a
                # process-global counter), so generation is reproducible.
                loc = match.expr.loc
                mutation = synthesize(match, profile,
                                      rng.fork(loc.line * 1009 + loc.col),
                                      function_body=match.function.body)
                if mutation is None:
                    continue
                try:
                    program = apply_mutation(unit, mutation,
                                             seed_index=resolved_index,
                                             cache=self.cache)
                except GenerationError:
                    telemetry.inc("ubgen.invalid_mutations")
                    continue
                programs[ub_type].append(program)
            stats.live_matches[ub_type] = live
            stats.generated[ub_type] = len(programs[ub_type])
        return programs, stats

    @staticmethod
    def _resolve_seed(seed_program: SeedLike, seed_index: int
                      ) -> tuple[ast.TranslationUnit, int]:
        if isinstance(seed_program, SeedProgram):
            if seed_program.analyzed is not None:
                return seed_program.analyzed[0], seed_program.index
            unit = parse_program(seed_program.source)
            analyze(unit)
            return unit, seed_program.index
        if isinstance(seed_program, str):
            unit = parse_program(seed_program)
            analyze(unit)
            return unit, seed_index
        if isinstance(seed_program, ast.TranslationUnit):
            analyze(seed_program)
            return seed_program, seed_index
        raise TypeError(f"unsupported seed type {type(seed_program).__name__}")
