"""Machine-speed reference of the campaign benchmark.

The benchmark's machines are shared, and their speed drifts by up to half
in spells of minutes: one fixed campaign input took 29 to 36 s over seven
runs in four minutes, with CPU time tracking wall time.  No amount of work
in one run averages that out, so campaign times are rescaled to a nominal
machine speed measured in the same process at the same time.

:func:`chunk` is a fixed piece of pure-Python work shaped like the
campaign's own (small objects, recursion over trees, dict updates, string
building) that uses no ``repro`` code, so a change to the program never
moves it.  It runs with the cyclic garbage collector paused, so the size of
the campaign's heap does not move it either.  A :class:`Meter` runs a
chunk whenever ``INTERVAL_S`` has passed since the last one (the layer
wrappers ask it at every call), so the chunks spread evenly over the run.
A time ``t`` measured while chunks took ``m`` seconds on average reads
``t * NOMINAL_S / m`` at nominal speed.
"""

from __future__ import annotations

import gc
import time

#: Seconds one :func:`chunk` takes at nominal speed: about its median on
#: the baseline machine (README.md, Baseline).
NOMINAL_S = 0.008

#: Least seconds between two chunks of a :class:`Meter`.
INTERVAL_S = 0.25


class _Node:
    __slots__ = ("kind", "value", "kids")

    def __init__(self, kind: str, value: int, kids: tuple) -> None:
        self.kind, self.value, self.kids = kind, value, kids


def _build(depth: int, value: int) -> _Node:
    if depth == 0:
        return _Node("leaf", value, ())
    return _Node("op", value, tuple(_build(depth - 1, value * 3 + index)
                                    for index in range(3)))


def _clone(node: _Node) -> _Node:
    return _Node(node.kind, node.value, tuple(_clone(kid) for kid in node.kids))


def _fold(node: _Node, table: dict) -> int:
    total = node.value
    for kid in node.kids:
        total += _fold(kid, table)
    key = (node.kind, total & 255)
    table[key] = table.get(key, 0) + 1
    return total


def chunk() -> tuple:
    """Run the reference work once; returns its (wall, CPU) seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start, cpu = time.perf_counter(), time.process_time()
        tree, table = _build(6, 1), {}
        for _ in range(4):
            tree = _clone(tree)
            _fold(tree, table)
        "".join(f"{kind}{low}:{count};"
                for (kind, low), count in sorted(table.items()))
        return time.perf_counter() - start, time.process_time() - cpu
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Reference chunks run at points of a timed interval: their wall
    times, and the wall and CPU seconds they took in total."""

    def __init__(self) -> None:
        self.samples: list = []
        self.wall = 0.0
        self.cpu = 0.0
        self._mark = time.perf_counter()

    def sample(self) -> None:
        wall, cpu = chunk()
        self.samples.append(wall)
        self.wall += wall
        self.cpu += cpu
        self._mark = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self._mark >= INTERVAL_S

    def factor(self) -> float:
        """Nominal over measured speed: multiply a time by it."""
        return NOMINAL_S * len(self.samples) / sum(self.samples)
