"""The execution substrate: flat memory, interpreter, debugger, profiling."""

from repro.vm.errors import (
    ExecutionResult,
    ExecutionTimeout,
    SanitizerAbort,
    SanitizerReport,
    VMFault,
)
from repro.vm.interpreter import (
    DEFAULT_MAX_STEPS,
    Interpreter,
    NullRuntime,
    SanitizerRuntime,
    run_program,
)
from repro.vm.memory import GUARD_GAP, Memory, MemoryObject
from repro.vm.profiler import ObservedBuffer, ProfileCollector, ValueObservation
from repro.vm.trace import Debugger, get_executed_sites
from repro.vm.values import RuntimeValue, coerce, make_value

__all__ = [
    "ExecutionResult",
    "ExecutionTimeout",
    "SanitizerAbort",
    "SanitizerReport",
    "VMFault",
    "DEFAULT_MAX_STEPS",
    "Interpreter",
    "NullRuntime",
    "SanitizerRuntime",
    "run_program",
    "GUARD_GAP",
    "Memory",
    "MemoryObject",
    "ObservedBuffer",
    "ProfileCollector",
    "ValueObservation",
    "Debugger",
    "get_executed_sites",
    "RuntimeValue",
    "coerce",
    "make_value",
]
