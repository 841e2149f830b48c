"""Cycle-level out-of-order superscalar timing model with mini-graph support."""

from .config import (
    CacheConfig,
    ConfigError,
    MachineConfig,
    baseline_config,
    integer_memory_minigraph_config,
    integer_minigraph_config,
)
from .catalog import MACHINE_CATALOG, machine_config, machine_names
from .bpred import (
    BranchPrediction,
    BranchTargetBuffer,
    FrontEndPredictor,
    HybridBranchPredictor,
    PredictorStats,
)
from .caches import Cache, CacheStats, MemoryHierarchy
from .storesets import StoreSetPredictor, StoreSetStats
from .funits import FunctionalUnitPool
from .decode import DecodedOp, DecodeTable, decode_table
from .dyninst import NEVER, DynInst
from .stats import PipelineStats
from .pipeline import FetchLayout, TimingError, TimingSimulator, simulate_program

__all__ = [
    "CacheConfig",
    "ConfigError",
    "MachineConfig",
    "MACHINE_CATALOG",
    "machine_config",
    "machine_names",
    "baseline_config",
    "integer_memory_minigraph_config",
    "integer_minigraph_config",
    "BranchPrediction",
    "BranchTargetBuffer",
    "FrontEndPredictor",
    "HybridBranchPredictor",
    "PredictorStats",
    "Cache",
    "CacheStats",
    "MemoryHierarchy",
    "StoreSetPredictor",
    "StoreSetStats",
    "FunctionalUnitPool",
    "DecodedOp",
    "DecodeTable",
    "decode_table",
    "NEVER",
    "DynInst",
    "PipelineStats",
    "FetchLayout",
    "TimingError",
    "TimingSimulator",
    "simulate_program",
]
