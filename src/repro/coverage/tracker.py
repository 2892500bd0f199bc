"""Coverage measurement over the simulated compiler's sanitizer/optimizer code.

The paper's RQ4 (Table 5) instruments the *sanitizer-related source files of
GCC and LLVM* with Gcov and measures line / function / branch coverage
achieved by each program corpus.  The analogue here is coverage of this
repository's own compiler internals — the :mod:`repro.optim`,
:mod:`repro.sanitizers` and :mod:`repro.compilers` packages — while they
compile a corpus:

* **line coverage** via a :func:`sys.settrace` hook restricted to those
  packages (denominator: all executable lines, obtained from the compiled
  code objects of each module file);
* **function coverage** from call events (denominator: all function code
  objects in those files);
* **branch coverage** from explicit ``cover_branch(site, taken)`` points the
  passes and runtimes call on their interesting decisions (denominator: the
  sites found by scanning the package sources; each site has two directions).
"""

from __future__ import annotations

import re
import sys
import types
from dataclasses import dataclass, field
from typing import Iterable, List, Set, Tuple

DEFAULT_PACKAGES = ("repro.optim", "repro.sanitizers", "repro.compilers")

_BRANCH_SITE_RE = re.compile(r"cover_branch\(\s*[f]?\"([^\"]+)\"")
_POINT_SITE_RE = re.compile(r"(?:cover_point|hit_point|_cover)\(\s*[f]?\"([^\"]+)\"")


@dataclass
class CoverageSnapshot:
    """Counters at one point in time (used to compute per-corpus deltas)."""

    lines: Set[Tuple[str, int]] = field(default_factory=set)
    functions: Set[Tuple[str, int]] = field(default_factory=set)
    branch_directions: Set[Tuple[str, bool]] = field(default_factory=set)
    points: Set[str] = field(default_factory=set)


class CoverageTracker:
    """Collects line/function/branch coverage for the compiler packages."""

    def __init__(self, packages: Iterable[str] = DEFAULT_PACKAGES) -> None:
        self.packages = tuple(packages)
        self._files = self._package_files()
        self._all_lines, self._all_functions = self._static_inventory()
        self._all_branch_sites = self._discover_branch_sites()
        self.lines: Set[Tuple[str, int]] = set()
        self.functions: Set[Tuple[str, int]] = set()
        self.branch_directions: Set[Tuple[str, bool]] = set()
        self.points: Set[str] = set()
        self._tracing = False
        self._previous_trace = None

    # -- explicit instrumentation points ------------------------------------------

    def hit_point(self, point_id: str) -> None:
        self.points.add(point_id)

    def hit_branch(self, site: str, taken: bool) -> None:
        self.branch_directions.add((site, bool(taken)))

    # -- line/function tracing ------------------------------------------------------

    def start(self) -> None:
        if self._tracing:
            return
        self._previous_trace = sys.gettrace()
        sys.settrace(self._trace_call)
        self._tracing = True

    def stop(self) -> None:
        if not self._tracing:
            return
        sys.settrace(self._previous_trace)
        self._previous_trace = None
        self._tracing = False

    def __enter__(self) -> "CoverageTracker":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _trace_call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self._files:
            return None
        if event == "call":
            self.functions.add((filename, frame.f_code.co_firstlineno))
            return self._trace_line
        return None

    def _trace_line(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._trace_line

    # -- snapshots --------------------------------------------------------------------

    def snapshot(self) -> CoverageSnapshot:
        return CoverageSnapshot(lines=set(self.lines),
                                functions=set(self.functions),
                                branch_directions=set(self.branch_directions),
                                points=set(self.points))

    def reset(self) -> None:
        self.lines.clear()
        self.functions.clear()
        self.branch_directions.clear()
        self.points.clear()

    # -- totals ------------------------------------------------------------------------

    @property
    def total_lines(self) -> int:
        return len(self._all_lines)

    @property
    def total_functions(self) -> int:
        return len(self._all_functions)

    @property
    def total_branch_directions(self) -> int:
        return 2 * len(self._all_branch_sites)

    # -- percentages ---------------------------------------------------------------------

    def line_coverage(self) -> float:
        return _ratio(len(self.lines & self._all_lines), self.total_lines)

    def function_coverage(self) -> float:
        return _ratio(len(self.functions & self._all_functions), self.total_functions)

    def branch_coverage(self) -> float:
        covered = sum(1 for site, _taken in self.branch_directions
                      if site in self._all_branch_sites)
        return _ratio(covered, self.total_branch_directions)

    # -- static inventory ------------------------------------------------------------------

    def _package_files(self) -> Set[str]:
        files: Set[str] = set()
        for package_name in self.packages:
            module = sys.modules.get(package_name)
            if module is None:
                try:
                    module = __import__(package_name, fromlist=["__name__"])
                except ImportError:
                    continue
            path = getattr(module, "__file__", None)
            if path is None:
                continue
            import os
            package_dir = os.path.dirname(path)
            for entry in os.listdir(package_dir):
                if not entry.endswith(".py"):
                    continue
                files.add(os.path.join(package_dir, entry))
                if entry != "__init__.py":
                    # Pre-import every submodule so no import happens *during*
                    # tracing: a lazy mid-trace import would credit the
                    # module-level lines to whichever corpus compiles first,
                    # skewing cross-corpus comparisons.
                    import importlib
                    try:
                        importlib.import_module(f"{package_name}.{entry[:-3]}")
                    except Exception:  # pragma: no cover - best-effort warm-up
                        pass
        return files

    def _static_inventory(self) -> tuple[Set[Tuple[str, int]], Set[Tuple[str, int]]]:
        """Executable lines and function definitions of all package files."""
        lines: Set[Tuple[str, int]] = set()
        functions: Set[Tuple[str, int]] = set()
        for filename in self._files:
            try:
                with open(filename, "r", encoding="utf-8") as handle:
                    code = compile(handle.read(), filename, "exec")
            except (OSError, SyntaxError):
                continue
            for code_obj in _walk_code(code):
                if code_obj.co_name != "<module>":
                    functions.add((filename, code_obj.co_firstlineno))
                for _start, _end, lineno in code_obj.co_lines():
                    if lineno is not None:
                        lines.add((filename, lineno))
        return lines, functions

    def _discover_branch_sites(self) -> Set[str]:
        sites: Set[str] = set()
        for filename in self._files:
            try:
                with open(filename, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError:
                continue
            for match in _BRANCH_SITE_RE.finditer(text):
                site = match.group(1)
                for prefix in self._site_prefixes(filename):
                    sites.add(f"{prefix}.{site}")
        return sites

    @staticmethod
    def _site_prefixes(filename: str) -> List[str]:
        # Branch sites are namespaced at runtime by the caller ("optim." by
        # OptimizationContext, "<sanitizer>." by InstrumentationContext).
        if "optim" in filename:
            return ["optim"]
        if "sanitizers" in filename:
            return ["asan", "ubsan", "msan"]
        return ["optim", "asan", "ubsan", "msan"]


def _walk_code(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _walk_code(const)


def _ratio(numerator: int, denominator: int) -> float:
    if denominator == 0:
        return 0.0
    return numerator / denominator
