"""The flat memory model of the simulated machine.

Memory is a collection of :class:`MemoryObject` allocations placed in three
segments (globals, stack, heap) by bump allocation, with a fixed guard gap
between neighbouring objects.  Addresses are plain integers; pointer values
in the VM are addresses into this space.

Two shadow states are maintained per byte, mirroring what the real sanitizer
runtimes keep:

* *poison* (AddressSanitizer) — set on red zones around instrumented
  objects, on freed heap objects, and on out-of-scope stack objects;
* *initialized* (MemorySanitizer) — cleared on allocation of stack/heap
  objects, set by every store.

Reads and writes that hit no live object are deliberately benign: reads
return the deterministic :data:`~repro.vm.values.UNINIT_BYTE` pattern and
writes land in a spill map.  This models the fact that a missed UB usually
does *not* crash a real program, which is exactly the false-negative
situation the paper hunts for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cdsl import ctypes_ as ct
from repro.vm.values import UNINIT_BYTE

#: Gap between neighbouring allocations.  ASan poisons (at most) this many
#: bytes on each side of an instrumented object, which reproduces the
#: paper's observation (§2.1) that ASan only detects overflows of up to 32
#: bytes past the object.
GUARD_GAP = 32

_GLOBAL_BASE = 0x0001_0000
_STACK_BASE = 0x0100_0000
_HEAP_BASE = 0x1000_0000

_object_counter = itertools.count(1)


@dataclass
class MemoryObject:
    """One allocation (a global, a stack variable or a heap block)."""

    oid: int
    name: str
    base: int
    size: int
    kind: str                      # "global", "stack" or "heap"
    ctype: Optional[ct.CType] = None
    scope_id: Optional[int] = None  # lexical scope for stack objects
    frame_id: Optional[int] = None
    freed: bool = False
    dead: bool = False              # stack object whose scope has exited
    data: bytearray = field(default_factory=bytearray)
    initialized: bytearray = field(default_factory=bytearray)

    def __post_init__(self) -> None:
        # Stored rather than a property: the VM hot path tests containment
        # on every memory access, and base/size never change once placed.
        self.end = self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    @property
    def is_live(self) -> bool:
        return not self.freed and not self.dead

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MemoryObject {self.name!r} {self.kind} "
                f"base=0x{self.base:x} size={self.size}>")


class Memory:
    """The flat address space of one program execution."""

    def __init__(self, guard_gap: int = GUARD_GAP) -> None:
        self.guard_gap = guard_gap
        self.objects: List[MemoryObject] = []
        self._by_base: Dict[int, MemoryObject] = {}
        self._next_addr = {"global": _GLOBAL_BASE, "stack": _STACK_BASE,
                           "heap": _HEAP_BASE}
        self._spill: Dict[int, int] = {}
        self._poisoned: set[int] = set()
        self._block_cache: Dict[int, MemoryObject] = {}
        self.alloc_hooks = []   # callables(MemoryObject) -> None
        self.free_hooks = []    # callables(MemoryObject) -> None

    # -- allocation ----------------------------------------------------------

    def allocate(self, size: int, kind: str, name: str,
                 ctype: Optional[ct.CType] = None,
                 scope_id: Optional[int] = None,
                 frame_id: Optional[int] = None,
                 zero_init: bool = False) -> MemoryObject:
        """Allocate *size* bytes in the given segment and return the object."""
        if kind not in self._next_addr:
            raise ValueError(f"unknown segment {kind!r}")
        size = max(1, size)
        base = _align_up(self._next_addr[kind], 16)
        self._next_addr[kind] = base + size + self.guard_gap
        obj = MemoryObject(
            oid=next(_object_counter), name=name, base=base, size=size,
            kind=kind, ctype=ctype, scope_id=scope_id, frame_id=frame_id,
            data=bytearray(size),
            initialized=bytearray([1] * size if zero_init else [0] * size),
        )
        self.objects.append(obj)
        self._by_base[base] = obj
        for hook in self.alloc_hooks:
            hook(obj)
        return obj

    def free(self, addr: int) -> Optional[MemoryObject]:
        """Mark the heap object starting at *addr* as freed.

        Returns the object, or None for an invalid free (which the VM treats
        as a silent no-op, matching our "missed UB is benign" philosophy).
        """
        obj = self._by_base.get(addr)
        if obj is None or obj.kind != "heap" or obj.freed:
            return None
        obj.freed = True
        for hook in self.free_hooks:
            hook(obj)
        return obj

    def mark_scope_dead(self, obj: MemoryObject) -> None:
        obj.dead = True

    def revive_for_scope(self, obj: MemoryObject) -> None:
        """Reset a stack slot when its scope is re-entered (loop iteration)."""
        obj.dead = False
        obj.initialized = bytearray(len(obj.initialized))

    # -- lookup --------------------------------------------------------------

    def object_at(self, addr: int, include_dead: bool = True) -> Optional[MemoryObject]:
        """Return the object containing *addr*, if any.

        Freed and dead objects are still found (``include_dead=True``)
        because use-after-free / use-after-scope detection needs them.

        Containment is unique — bump allocation with guard gaps never
        overlaps objects and never reuses addresses — and the guard gap
        (32) exceeds the 16-byte base alignment, so each 16-byte block
        intersects at most one object.  That makes a block-keyed cache of
        scan results sound: a cached object is returned only after its own
        containment (and requested liveness) re-checks.
        """
        cached = self._block_cache.get(addr >> 4)
        if cached is not None and cached.base <= addr < cached.end \
                and (include_dead or cached.is_live):
            return cached
        for obj in reversed(self.objects):
            if obj.contains(addr) and (include_dead or obj.is_live):
                self._block_cache[addr >> 4] = obj
                return obj
        return None

    def object_by_base(self, addr: int) -> Optional[MemoryObject]:
        return self._by_base.get(addr)

    def nearest_object(self, addr: int, max_distance: int) -> Optional[MemoryObject]:
        """Return the closest object whose end/start is within *max_distance*."""
        best: Optional[MemoryObject] = None
        best_dist = max_distance + 1
        for obj in self.objects:
            if obj.contains(addr):
                return obj
            dist = obj.base - addr if addr < obj.base else addr - obj.end + 1
            if 0 <= dist < best_dist:
                best, best_dist = obj, dist
        return best

    # -- poisoning (ASan shadow) ---------------------------------------------

    def poison(self, addr: int, size: int) -> None:
        self._poisoned.update(range(addr, addr + size))

    def unpoison(self, addr: int, size: int) -> None:
        self._poisoned.difference_update(range(addr, addr + size))

    def is_poisoned(self, addr: int, size: int = 1) -> bool:
        return any(a in self._poisoned for a in range(addr, addr + size))

    def poison_redzones(self, obj: MemoryObject, redzone: int) -> None:
        """Poison only the red zones around *obj* (allocation-time ASan)."""
        redzone = min(redzone, self.guard_gap)
        self.poison(obj.base - redzone, redzone)
        self.poison(obj.end, redzone)

    # -- byte access ---------------------------------------------------------

    def read_bytes(self, addr: int, size: int) -> tuple[bytes, bool]:
        """Read raw bytes; returns (data, any_uninitialized).

        The common case — the whole range inside one object — is served by
        slice operations; only accesses that spill past an object (the UB
        substrate) fall back to the per-byte walk.  Both paths return
        identical bytes/taint because containment is unique (see
        :meth:`object_at`).
        """
        obj = self.object_at(addr)
        if obj is not None and addr + size <= obj.end:
            offset = addr - obj.base
            end = offset + size
            return bytes(obj.data[offset:end]), 0 in obj.initialized[offset:end]
        out = bytearray()
        tainted = False
        for a in range(addr, addr + size):
            obj = self.object_at(a)
            if obj is not None:
                offset = a - obj.base
                out.append(obj.data[offset])
                if not obj.initialized[offset]:
                    tainted = True
            elif a in self._spill:
                out.append(self._spill[a])
            else:
                out.append(UNINIT_BYTE)
                tainted = True
        return bytes(out), tainted

    def write_bytes(self, addr: int, data: bytes) -> None:
        size = len(data)
        obj = self.object_at(addr)
        if obj is not None and addr + size <= obj.end:
            offset = addr - obj.base
            end = offset + size
            obj.data[offset:end] = data
            obj.initialized[offset:end] = b"\x01" * size
            return
        for i, byte in enumerate(data):
            a = addr + i
            obj = self.object_at(a)
            if obj is not None:
                offset = a - obj.base
                obj.data[offset] = byte
                obj.initialized[offset] = 1
            else:
                self._spill[a] = byte

    def read_int(self, addr: int, size: int, signed: bool) -> tuple[int, bool]:
        obj = self.object_at(addr)
        if obj is not None and addr + size <= obj.end:
            offset = addr - obj.base
            end = offset + size
            return (int.from_bytes(obj.data[offset:end], "little",
                                   signed=signed),
                    0 in obj.initialized[offset:end])
        data, tainted = self.read_bytes(addr, size)
        return int.from_bytes(data, "little", signed=signed), tainted

    def write_int(self, addr: int, size: int, value: int) -> None:
        mask = (1 << (8 * size)) - 1
        self.write_bytes(addr, (value & mask).to_bytes(size, "little"))

    def mark_initialized(self, addr: int, size: int, initialized: bool = True) -> None:
        flag = 1 if initialized else 0
        obj = self.object_at(addr)
        if obj is not None and addr + size <= obj.end:
            offset = addr - obj.base
            obj.initialized[offset:offset + size] = bytes([flag]) * size
            return
        for a in range(addr, addr + size):
            obj = self.object_at(a)
            if obj is not None:
                obj.initialized[a - obj.base] = flag

    def is_initialized(self, addr: int, size: int) -> bool:
        for a in range(addr, addr + size):
            obj = self.object_at(a)
            if obj is None:
                if a not in self._spill:
                    return False
            elif not obj.initialized[a - obj.base]:
                return False
        return True


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align
