"""Functional (architectural) simulation: golden model, memory, traces."""

from .functional import (
    FunctionalResult,
    FunctionalSimulator,
    SimulationError,
    run_program,
)
from .memory import Memory, MemoryError_
from .trace import Trace, decode_trace, encode_trace

__all__ = [
    "FunctionalResult",
    "FunctionalSimulator",
    "SimulationError",
    "run_program",
    "Memory",
    "MemoryError_",
    "Trace",
    "decode_trace",
    "encode_trace",
]
