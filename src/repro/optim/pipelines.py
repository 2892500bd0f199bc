"""Per-compiler, per-level optimization pipelines.

The two simulated compilers run the same pass *implementations* but differ —
like real GCC and LLVM — in which passes run at which level, their order and
how many times the pipeline is iterated.  These differences are what make
cross-compiler differential testing meaningful: the same UB program may keep
its UB under one compiler's pipeline and lose it under the other's.

Pipelines are optionally **version-aware**: passing a ``version`` to
:func:`pipeline_for` models the optimizer's release history —

* each pass has an *introduction version* per compiler
  (:data:`PASS_INTRODUCED`): older releases simply do not run it;
* seeded :class:`OptimizerDefect` windows disable a pass at specific
  levels between an ``introduced`` and a ``fixed`` release, modelling the
  optimizer regressions the marker-based missed-optimization engine
  (:mod:`repro.markers`) exists to find.

``version=None`` (the default everywhere outside the marker engine) keeps
the historical flat behaviour: every pass of the level runs regardless of
release, so differential testing and triage are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.optim.constant_fold import ConstantFoldPass
from repro.optim.constprop import ConstantPropagationPass
from repro.optim.dce import DeadCodeEliminationPass
from repro.optim.dse import DeadStoreEliminationPass
from repro.optim.loop_opts import LoopOptimizationPass
from repro.optim.passes import OptimizationPass, PassPipeline
from repro.optim.simplify import AlgebraicSimplifyPass

OPT_LEVELS = ("-O0", "-O1", "-Os", "-O2", "-O3")

#: First release of each compiler that runs a given pass (absent = always).
#: Mirrors how real optimizations land in some release and only exist from
#: then on; versions predate :data:`repro.compilers.versions` trunk.
PASS_INTRODUCED: Dict[str, Dict[str, int]] = {
    "gcc": {"dse": 7, "constprop": 8, "loop-opts": 9},
    "llvm": {"dse": 7, "constprop": 9, "loop-opts": 10},
}


@dataclass(frozen=True)
class OptimizerDefect:
    """A seeded optimizer regression: *pass_name* stops running for
    *compiler* at *opt_levels* from release ``introduced`` until (but not
    including) release ``fixed``.

    These are quality regressions, not miscompilations — a disabled pass
    only ever makes the compiler *retain* code it used to eliminate, which
    is exactly the cross-version signal the marker engine diffs for.
    """

    compiler: str
    pass_name: str
    opt_levels: Tuple[str, ...]
    introduced: int
    fixed: int

    def active_for(self, compiler: str, version: int, opt_level: str) -> bool:
        return (compiler == self.compiler
                and opt_level in self.opt_levels
                and self.introduced <= version < self.fixed)


#: The seeded optimizer-regression windows.  All are fixed before trunk, so
#: default (trunk-version) compilers never see them; the marker engine's
#: cross-version sweep rediscovers each as a regression finding.  Every
#: seeded pass is one that can eliminate a planted marker (marker calls are
#: impure, so only dead-branch folding, constant propagation feeding it,
#: and whole-loop deletion ever remove one).
DEFAULT_OPTIMIZER_DEFECTS: Tuple[OptimizerDefect, ...] = (
    OptimizerDefect("gcc", "constprop", ("-O2",), introduced=11, fixed=12),
    OptimizerDefect("gcc", "constant-fold", ("-O3",), introduced=12, fixed=13),
    OptimizerDefect("llvm", "loop-opts", ("-O3",), introduced=14, fixed=16),
)


def _gcc_passes(opt_level: str) -> List[OptimizationPass]:
    if opt_level == "-O0":
        # GCC still folds constants at -O0 (the paper notes that even -O0
        # performs basic optimizations such as constant folding).
        return [ConstantFoldPass()]
    if opt_level == "-O1":
        return [ConstantFoldPass(), DeadCodeEliminationPass()]
    if opt_level == "-Os":
        return [ConstantFoldPass(), AlgebraicSimplifyPass(),
                DeadCodeEliminationPass(), DeadStoreEliminationPass()]
    if opt_level == "-O2":
        return [ConstantPropagationPass(), ConstantFoldPass(),
                AlgebraicSimplifyPass(), DeadStoreEliminationPass(),
                DeadCodeEliminationPass()]
    # -O3
    return [ConstantPropagationPass(), ConstantFoldPass(),
            AlgebraicSimplifyPass(), LoopOptimizationPass(),
            DeadStoreEliminationPass(), DeadCodeEliminationPass()]


def _llvm_passes(opt_level: str) -> List[OptimizationPass]:
    if opt_level == "-O0":
        return []
    if opt_level == "-O1":
        return [ConstantFoldPass(), AlgebraicSimplifyPass(),
                DeadCodeEliminationPass()]
    if opt_level == "-Os":
        return [ConstantFoldPass(), AlgebraicSimplifyPass(),
                DeadStoreEliminationPass(), DeadCodeEliminationPass()]
    if opt_level == "-O2":
        return [AlgebraicSimplifyPass(), ConstantPropagationPass(),
                ConstantFoldPass(), DeadStoreEliminationPass(),
                LoopOptimizationPass(), DeadCodeEliminationPass()]
    # -O3
    return [AlgebraicSimplifyPass(), ConstantPropagationPass(),
            ConstantFoldPass(), DeadStoreEliminationPass(),
            LoopOptimizationPass(), DeadCodeEliminationPass()]


_BUILDERS = {"gcc": _gcc_passes, "llvm": _llvm_passes}

_ITERATIONS: Dict[str, Dict[str, int]] = {
    "gcc": {"-O0": 1, "-O1": 1, "-Os": 2, "-O2": 2, "-O3": 3},
    "llvm": {"-O0": 1, "-O1": 1, "-Os": 2, "-O2": 3, "-O3": 3},
}


def pipeline_for(compiler: str, opt_level: str,
                 version: Optional[int] = None,
                 defects: Sequence[OptimizerDefect] = DEFAULT_OPTIMIZER_DEFECTS
                 ) -> PassPipeline:
    """Build the pass pipeline for a compiler at an optimization level.

    With ``version=None`` (the default) the flat, release-independent
    pipeline is returned.  With a version, passes not yet introduced at
    that release (:data:`PASS_INTRODUCED`) and passes inside an active
    :class:`OptimizerDefect` window are removed — the version-aware mode
    the marker engine compiles its config matrix under.
    """
    if compiler not in _BUILDERS:
        raise KeyError(f"unknown compiler {compiler!r}")
    if opt_level not in OPT_LEVELS:
        raise KeyError(f"unknown optimization level {opt_level!r}")
    passes = _BUILDERS[compiler](opt_level)
    if version is not None:
        introduced = PASS_INTRODUCED.get(compiler, {})
        passes = [p for p in passes
                  if introduced.get(p.name, 0) <= version
                  and not any(d.pass_name == p.name
                              and d.active_for(compiler, version, opt_level)
                              for d in defects)]
    iterations = _ITERATIONS[compiler].get(opt_level, 1)
    return PassPipeline(passes, max_iterations=iterations)


def effective_pass_names(compiler: str, opt_level: str,
                         version: Optional[int] = None,
                         defects: Sequence[OptimizerDefect] = DEFAULT_OPTIMIZER_DEFECTS
                         ) -> List[str]:
    """Names of the passes :func:`pipeline_for` would run for this config.

    The marker engine diffs these between adjacent releases to attribute a
    cross-version regression to the pass that stopped running.
    """
    return pipeline_for(compiler, opt_level, version, defects).pass_names
