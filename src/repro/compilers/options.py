"""Compilation options: optimization levels and sanitizer flags."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.optim.pipelines import OPT_LEVELS

#: The optimization levels the paper enables for differential testing (§4.1).
ALL_OPT_LEVELS = OPT_LEVELS


@dataclass(frozen=True)
class CompileOptions:
    """Options for one compilation, mirroring a command line like
    ``gcc -O2 -fsanitize=address -g a.c``."""

    opt_level: str = "-O0"
    sanitizer: Optional[str] = None    # "asan", "ubsan", "msan" or None
    debug_info: bool = True            # -g; required by crash-site mapping

    def __post_init__(self) -> None:
        if self.opt_level not in ALL_OPT_LEVELS:
            raise ValueError(f"unknown optimization level {self.opt_level!r}")

    def command_line(self, compiler: str = "gcc", source: str = "a.c") -> str:
        """The equivalent real-world command line (for logs and reports)."""
        parts = [compiler, self.opt_level]
        if self.sanitizer is not None:
            flag = {"asan": "address", "ubsan": "undefined", "msan": "memory"}
            parts.append(f"-fsanitize={flag.get(self.sanitizer, self.sanitizer)}")
        if self.debug_info:
            parts.append("-g")
        parts.append(source)
        return " ".join(parts)

