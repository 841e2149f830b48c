"""Static program model: programs, basic blocks, liveness, profiles, rewriting."""

from .program import Program, ProgramError
from .basic_block import (
    BasicBlock,
    BlockIndex,
    average_block_size,
    find_leaders,
    split_basic_blocks,
)
from .liveness import LivenessInfo, analyze_liveness, block_successors
from .profile import BlockProfile
from .rewriter import RewriteError, RewriteResult, RewriteSite, rewrite_program

__all__ = [
    "Program",
    "ProgramError",
    "BasicBlock",
    "BlockIndex",
    "average_block_size",
    "find_leaders",
    "split_basic_blocks",
    "LivenessInfo",
    "analyze_liveness",
    "block_successors",
    "BlockProfile",
    "RewriteError",
    "RewriteResult",
    "RewriteSite",
    "rewrite_program",
]
