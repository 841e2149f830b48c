"""Register namespace for the MGA (mini-graph architecture) ISA.

The ISA is Alpha-inspired: 32 integer registers and 32 floating-point
registers, 64 architected registers in total (the paper's baseline allocates
64 physical registers to architected state).  Integer register 31 and FP
register 31 always read as zero, like the Alpha ``r31``/``f31``.

Registers are represented as small integers:

* ``0 .. 31``  -> integer registers ``r0 .. r31``
* ``32 .. 63`` -> floating point registers ``f0 .. f31``

A handful of integer registers have conventional roles (stack pointer,
return address, assembler temporary) mirroring the Alpha calling convention;
the roles only matter to the workload kernels, not to the hardware model.
"""

from __future__ import annotations

NUM_INT_REGS = 32
NUM_FP_REGS = 32
NUM_ARCH_REGS = NUM_INT_REGS + NUM_FP_REGS

#: Integer register that always reads as zero (Alpha r31).
ZERO_REG = 31
#: Floating-point register that always reads as zero (Alpha f31).
FP_ZERO_REG = 32 + 31

#: Conventional roles (only used by the assembler / workload kernels).
RETURN_ADDRESS_REG = 26
STACK_POINTER_REG = 30
GLOBAL_POINTER_REG = 29
ASSEMBLER_TEMP_REG = 28


class RegisterError(ValueError):
    """Raised for malformed register names or out-of-range register numbers."""


def is_int_reg(reg: int) -> bool:
    """Return True if ``reg`` names an integer register."""
    return 0 <= reg < NUM_INT_REGS


def is_fp_reg(reg: int) -> bool:
    """Return True if ``reg`` names a floating-point register."""
    return NUM_INT_REGS <= reg < NUM_ARCH_REGS


def is_zero_reg(reg: int) -> bool:
    """Return True if ``reg`` is one of the hardwired-zero registers."""
    return reg in (ZERO_REG, FP_ZERO_REG)


def int_reg(index: int) -> int:
    """Return the register number of integer register ``index``."""
    if not 0 <= index < NUM_INT_REGS:
        raise RegisterError(f"integer register index out of range: {index}")
    return index


def fp_reg(index: int) -> int:
    """Return the register number of floating-point register ``index``."""
    if not 0 <= index < NUM_FP_REGS:
        raise RegisterError(f"fp register index out of range: {index}")
    return NUM_INT_REGS + index


def reg_name(reg: int) -> str:
    """Return the assembly name (``rN`` or ``fN``) of a register number."""
    if is_int_reg(reg):
        return f"r{reg}"
    if is_fp_reg(reg):
        return f"f{reg - NUM_INT_REGS}"
    raise RegisterError(f"register number out of range: {reg}")


def parse_reg(name: str) -> int:
    """Parse an assembly register name into a register number.

    Accepts ``rN`` / ``fN`` (case-insensitive), the alias ``zero`` for the
    integer zero register, and the conventional aliases ``sp``, ``ra``, ``gp``
    and ``at``.
    """
    text = name.strip().lower()
    aliases = {
        "zero": ZERO_REG,
        "sp": STACK_POINTER_REG,
        "ra": RETURN_ADDRESS_REG,
        "gp": GLOBAL_POINTER_REG,
        "at": ASSEMBLER_TEMP_REG,
    }
    if text in aliases:
        return aliases[text]
    if len(text) >= 2 and text[0] in ("r", "f") and text[1:].isdigit():
        index = int(text[1:])
        if text[0] == "r":
            return int_reg(index)
        return fp_reg(index)
    raise RegisterError(f"malformed register name: {name!r}")
