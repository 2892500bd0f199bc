"""Coverage measurement over the simulated compiler's sanitizer/optimizer code.

The paper's RQ4 (Table 5) instruments the *sanitizer-related source files of
GCC and LLVM* with Gcov and measures line / function / branch coverage
achieved by each program corpus.  The analogue here is coverage of this
repository's own compiler internals — the :mod:`repro.optim`,
:mod:`repro.sanitizers` and :mod:`repro.compilers` packages — while they
compile a corpus.  One :func:`sys.settrace` tracer, restricted to the
module files of those packages, records all three:

* **function coverage** from call events (denominator: all function code
  objects in those files);
* **line coverage** from line events (denominator: all executable lines,
  obtained from the compiled code objects of each module file);
* **branch coverage** from the line arcs those events show: each frame's
  previous and current line, and on a return event its last line and the
  function's exit (denominator: the branch directions of
  :func:`branch_directions`, one per side of each conditional jump in the
  files' bytecode).  This is Gcov's unit, one direction per side of a
  conditional branch, measured the way coverage.py measures branches,
  whose arcs also leave a function for the negative exit line
  ``-co_firstlineno``.  The packages define no generators, whose every
  yield would also raise a return event.
"""

from __future__ import annotations

import dis
import importlib
import os
import sys
import types
from typing import Dict, Optional, Set, Tuple

#: The packages whose module files the tracker inventories and traces.
PACKAGES = ("repro.optim", "repro.sanitizers", "repro.compilers")

#: Instructions that leave the function, returning or raising.
_RETURNS = frozenset({"RETURN_VALUE", "RETURN_CONST"})
_RAISES = frozenset({"RAISE_VARARGS", "RERAISE"})

#: One branch direction, or one recorded line arc: (file, line, next
#: line), where the next line of a return is the function's exit,
#: ``-co_firstlineno``.
Arc = Tuple[str, Optional[int], int]


class CoverageTracker:
    """Collects line/function/branch coverage for the compiler packages."""

    def __init__(self) -> None:
        self._files = _package_files()
        self._all_lines: Set[Tuple[str, int]] = set()
        self._all_functions: Set[Tuple[str, int]] = set()
        self._all_directions: Set[Arc] = set()
        for filename in self._files:
            with open(filename, "r", encoding="utf-8") as handle:
                module = compile(handle.read(), filename, "exec")
            for code in _walk_code(module):
                if code.co_name != "<module>":
                    self._all_functions.add((filename, code.co_firstlineno))
                self._all_lines.update((filename, line)
                                       for _, _, line in code.co_lines()
                                       if line is not None)
            self._all_directions |= branch_directions(module)
        self.functions: Set[Tuple[str, int]] = set()
        #: ``(file, previous line, line)`` per line event; the previous
        #: line of a frame's first event is None.
        self.arcs: Set[Arc] = set()
        self._tracing = False
        self._previous_trace = None

    # -- tracing --------------------------------------------------------------

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
        self.functions.add((filename, frame.f_code.co_firstlineno))
        arcs = self.arcs
        exit_line = -frame.f_code.co_firstlineno
        previous = None

        def trace_line(frame, event, arg):
            nonlocal previous
            if event == "line":
                arcs.add((filename, previous, frame.f_lineno))
                previous = frame.f_lineno
            elif event == "return":
                arcs.add((filename, previous, exit_line))
            return trace_line

        return trace_line

    # -- totals ---------------------------------------------------------------

    @property
    def total_lines(self) -> int:
        return len(self._all_lines)

    @property
    def total_functions(self) -> int:
        return len(self._all_functions)

    @property
    def total_branch_directions(self) -> int:
        return len(self._all_directions)

    # -- percentages ----------------------------------------------------------

    def line_coverage(self) -> float:
        lines = {(filename, line) for filename, _, line in self.arcs}
        return _ratio(len(lines & self._all_lines), self.total_lines)

    def function_coverage(self) -> float:
        return _ratio(len(self.functions & self._all_functions),
                      self.total_functions)

    def branch_coverage(self) -> float:
        return _ratio(len(self.arcs & self._all_directions),
                      self.total_branch_directions)


def branch_directions(code: types.CodeType) -> Set[Arc]:
    """The branch directions of *code* and of the code objects nested in it.

    Each conditional jump (an instruction whose name contains ``IF``, or a
    ``FOR_ITER``) on line L gives one direction ``(file, L, M)`` per side,
    fall-through and target, where M is the first line other than L that
    the side reaches, or the function's exit ``-co_firstlineno`` when the
    side returns first (CPython gives the implicit return that ends a
    function the line of the decision that jumps to it).  A jump gives
    none when a side raises before it reaches a new line, or both sides
    reach the same one.
    """
    directions: Set[Arc] = set()
    for inner in _walk_code(code):
        instructions = list(dis.get_instructions(inner))
        position = {instr.offset: index
                    for index, instr in enumerate(instructions)}
        lines: Dict[int, Optional[int]] = {}
        for start, end, line in inner.co_lines():
            for offset in range(start, end, 2):
                lines[offset] = line
        for index, instr in enumerate(instructions):
            if "IF" not in instr.opname and instr.opname != "FOR_ITER":
                continue
            line = lines[instr.offset]
            sides = {_first_new_line(instructions, position, lines, side, line,
                                     -inner.co_firstlineno)
                     for side in (index + 1, position[instr.argval])}
            if len(sides) == 2 and None not in sides:
                directions.update((inner.co_filename, line, target)
                                  for target in sides)
    return directions


def _first_new_line(instructions, position, lines, index, line, exit_line):
    """The first line other than *line* that execution reaches from
    ``instructions[index]`` on, following unconditional jumps and the
    fall-through of conditional ones: *exit_line* if it returns first,
    None if it raises first or reaches no new line."""
    seen = set()
    while index < len(instructions) and index not in seen:
        seen.add(index)
        instr = instructions[index]
        reached = lines[instr.offset]
        if reached is not None and reached != line:
            return reached
        if instr.opname in _RETURNS:
            return exit_line
        if instr.opname in _RAISES:
            return None
        if "JUMP" in instr.opname and "IF" not in instr.opname:
            index = position[instr.argval]
        else:
            index += 1
    return None


def _package_files() -> Set[str]:
    """The module files of :data:`PACKAGES`, every module imported.

    Importing every module up front means no import happens *during*
    tracing: a lazy mid-trace import would credit the module-level lines
    to whichever corpus compiles first, skewing cross-corpus comparisons.
    """
    files: Set[str] = set()
    for package_name in PACKAGES:
        package_dir = os.path.dirname(
            importlib.import_module(package_name).__file__)
        for entry in os.listdir(package_dir):
            if not entry.endswith(".py"):
                continue
            files.add(os.path.join(package_dir, entry))
            if entry != "__init__.py":
                importlib.import_module(f"{package_name}.{entry[:-3]}")
    return files


def _walk_code(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _walk_code(const)


def _ratio(numerator: int, denominator: int) -> float:
    if denominator == 0:
        return 0.0
    return numerator / denominator
