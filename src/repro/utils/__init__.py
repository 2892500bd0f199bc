"""Shared utilities: error hierarchy, deterministic RNG, text formatting."""

from repro.utils.errors import (
    CompilationError,
    GenerationError,
    LexError,
    ParseError,
    ProfilingError,
    ReductionError,
    ReproError,
    SemaError,
)
from repro.utils.rng import RandomSource, derive_seed
from repro.utils.text import format_table, indent, number_lines, percent

__all__ = [
    "CompilationError",
    "GenerationError",
    "LexError",
    "ParseError",
    "ProfilingError",
    "ReductionError",
    "ReproError",
    "SemaError",
    "RandomSource",
    "derive_seed",
    "format_table",
    "indent",
    "number_lines",
    "percent",
]
