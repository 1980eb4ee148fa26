"""SpecVM: a toy register VM that makes speculative-execution bugs visible.

The package bundles an assembler and interpreter for a small unsigned
64-bit register machine, an exposure engine that simulates conditional
branch mispredictions with checkpoint/rollback, a coverage-guided fuzzer,
violation aggregation and whitelisting, FENCE and SLH hardening passes,
an exhaustive path-enumeration oracle, and a fixture corpus of classic
bounds-check-bypass gadgets.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .isa import (
    AsmError,
    BasicBlock,
    Instruction,
    InstructionId,
    Op,
    Program,
    emit_text,
    parse_program,
    validate,
)
from .machine import (
    AccessClass,
    Fault,
    RunResult,
    run_architectural,
)
from .engine import (
    BranchStats,
    ExposureEngine,
    RunTrace,
    SpecConfig,
    allowed_order,
    full_order_stats,
    run_with_exposure,
)
from .detect import ViolationRecord, dedup_key
from .oracle import OracleError, enumerate_paths
from .gadgets import GadgetError, builtin_gadget, gadget_ids

__all__ = [
    "__version__",
    "AsmError",
    "BasicBlock",
    "Instruction",
    "InstructionId",
    "Op",
    "Program",
    "emit_text",
    "parse_program",
    "validate",
    "AccessClass",
    "Fault",
    "RunResult",
    "run_architectural",
    "BranchStats",
    "ExposureEngine",
    "RunTrace",
    "SpecConfig",
    "allowed_order",
    "full_order_stats",
    "run_with_exposure",
    "ViolationRecord",
    "dedup_key",
    "OracleError",
    "enumerate_paths",
    "GadgetError",
    "builtin_gadget",
    "gadget_ids",
]
