"""Configuration for the Csmith-like seed program generator."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class GeneratorConfig:
    """Tunables of :class:`~repro.seedgen.csmith.CsmithGenerator`.

    ``safe_math`` mirrors Csmith's safe wrappers: when True (the default, as
    in stock Csmith) every division is guarded against a zero divisor, every
    shift amount is masked and signed arithmetic is widened so the seed
    program is UB-free.  ``safe_math=False`` is the paper's *Csmith-NoSafe*
    baseline: the wrappers are dropped, which lets arithmetic UB (integer
    overflow, shift overflow, division by zero) slip into roughly half of
    the generated programs but produces no memory-safety UB.  The shape of
    the programs is fixed by the constants of :mod:`repro.seedgen.csmith`.
    """

    seed: int = 0
    safe_math: bool = True
