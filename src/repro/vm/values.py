"""Runtime values.

Scalars (integers and pointers) are represented as a small
:class:`RuntimeValue` carrying the integer payload and an *uninitialized*
taint bit.  The taint bit is the VM-level substrate that MemorySanitizer
builds on: reads of never-written memory produce tainted values, arithmetic
propagates taint, and the MSan check inserted at branches reports when a
tainted value influences control flow (paper Table 1, "Use of Uninit.
Memory").
"""

from __future__ import annotations

from repro.cdsl import ctypes_ as ct

#: The deterministic byte pattern returned when reading memory that was
#: never written.  Using a non-zero pattern mimics real stack garbage and
#: keeps uninitialised branches observable.
UNINIT_BYTE = 0xAA


class RuntimeValue:
    """An integer or pointer value plus its uninitialized-taint bit.

    Immutable by convention (nothing in the VM writes to an existing
    instance, which lets hot paths share pooled instances).  A hand-written
    ``__slots__`` class rather than a frozen dataclass: the VM constructs
    one of these for every non-pooled intermediate value, and the frozen
    ``object.__setattr__`` path costs ~2x a plain slot store per field.
    """

    __slots__ = ("value", "tainted")

    def __init__(self, value: int, tainted: bool = False):
        self.value = value
        self.tainted = tainted

    def with_value(self, value: int) -> "RuntimeValue":
        return RuntimeValue(value, self.tainted)

    def __int__(self) -> int:
        return self.value

    def __eq__(self, other) -> bool:
        if other.__class__ is RuntimeValue:
            return self.value == other.value and self.tainted == other.tainted
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.tainted))

    def __repr__(self) -> str:
        return f"RuntimeValue(value={self.value!r}, tainted={self.tainted!r})"

    @property
    def is_true(self) -> bool:
        return self.value != 0


ZERO = RuntimeValue(0)
ONE = RuntimeValue(1)


def make_value(value: int, tainted: bool = False) -> RuntimeValue:
    return RuntimeValue(value, tainted)


def coerce(value: RuntimeValue, ctype: ct.CType) -> RuntimeValue:
    """Convert *value* to *ctype* the way a store/cast would (wrapping)."""
    if isinstance(ctype, ct.IntType):
        return RuntimeValue(ctype.wrap(value.value), value.tainted)
    if isinstance(ctype, (ct.PointerType, ct.ArrayType, ct.FunctionType)):
        return RuntimeValue(value.value & ((1 << 64) - 1), value.tainted)
    return value


def combine_taint(*values: RuntimeValue) -> bool:
    return any(v.tainted for v in values)
