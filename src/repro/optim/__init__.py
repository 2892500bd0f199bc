"""AST-level optimization passes and per-compiler pipelines."""

from repro.optim.constant_fold import ConstantFoldPass
from repro.optim.constprop import ConstantPropagationPass
from repro.optim.dce import DeadCodeEliminationPass
from repro.optim.dse import DeadStoreEliminationPass
from repro.optim.loop_opts import LoopOptimizationPass
from repro.optim.passes import (
    OptimizationContext,
    OptimizationPass,
    PassPipeline,
    is_pure_expr,
)
from repro.optim.pipelines import (
    DEFAULT_OPTIMIZER_DEFECTS,
    OPT_LEVELS,
    PASS_INTRODUCED,
    OptimizerDefect,
    effective_pass_names,
    pipeline_for,
)
from repro.optim.simplify import AlgebraicSimplifyPass

__all__ = [
    "ConstantFoldPass",
    "ConstantPropagationPass",
    "DeadCodeEliminationPass",
    "DeadStoreEliminationPass",
    "LoopOptimizationPass",
    "OptimizationContext",
    "OptimizationPass",
    "PassPipeline",
    "is_pure_expr",
    "OPT_LEVELS",
    "PASS_INTRODUCED",
    "OptimizerDefect",
    "DEFAULT_OPTIMIZER_DEFECTS",
    "effective_pass_names",
    "pipeline_for",
    "AlgebraicSimplifyPass",
]
