"""The MGA instruction set: opcodes, registers, instructions and assembler.

This package defines the Alpha-inspired RISC ISA that the rest of the
reproduction is built on.  The public surface is:

* :mod:`repro.isa.opcodes` — opcode table (:func:`opcode`, :class:`OpSpec`,
  :class:`OpClass`).
* :mod:`repro.isa.registers` — register namespace and helpers.
* :mod:`repro.isa.instruction` — the :class:`Instruction` dataclass and the
  handle constructor :func:`make_handle`.
* :mod:`repro.isa.assembler` — a two-pass assembler for textual kernels.
"""

from .instruction import (
    INSTRUCTION_BYTES,
    Instruction,
    format_instruction,
    make_halt,
    make_handle,
    make_nop,
)
from .opcodes import (
    OpClass,
    OpSpec,
    UnknownOpcodeError,
    all_opcodes,
    has_opcode,
    opcode,
)
from .registers import (
    NUM_ARCH_REGS,
    NUM_FP_REGS,
    NUM_INT_REGS,
    ZERO_REG,
    FP_ZERO_REG,
    RegisterError,
    fp_reg,
    int_reg,
    is_fp_reg,
    is_int_reg,
    is_zero_reg,
    parse_reg,
    reg_name,
)
from .assembler import Assembler, AssemblerError, AssembledUnit, assemble

__all__ = [
    "INSTRUCTION_BYTES",
    "Instruction",
    "format_instruction",
    "make_halt",
    "make_handle",
    "make_nop",
    "OpClass",
    "OpSpec",
    "UnknownOpcodeError",
    "all_opcodes",
    "has_opcode",
    "opcode",
    "NUM_ARCH_REGS",
    "NUM_FP_REGS",
    "NUM_INT_REGS",
    "ZERO_REG",
    "FP_ZERO_REG",
    "RegisterError",
    "fp_reg",
    "int_reg",
    "is_fp_reg",
    "is_int_reg",
    "is_zero_reg",
    "parse_reg",
    "reg_name",
    "Assembler",
    "AssemblerError",
    "AssembledUnit",
    "assemble",
]
