"""Verification and optimization passes of the HIR compiler (Sections 6 and 7)."""

from repro.passes.canonicalize import CanonicalizePass
from repro.passes.constant_propagation import ConstantPropagationPass
from repro.passes.cse import CSEPass
from repro.passes.delay_elimination import DelayEliminationPass
from repro.passes.legacy import (
    LegacyCanonicalizePass,
    LegacyConstantPropagationPass,
    LegacyCSEPass,
    LegacyDelayEliminationPass,
    LegacyStrengthReductionPass,
)
from repro.passes.memport_opt import MemPortOptimizationPass
from repro.passes.precision_opt import PrecisionOptimizationPass, RangeAnalysis
from repro.passes.pipeline import (
    optimization_pipeline,
    verification_pipeline,
)
from repro.passes.schedule_verifier import (
    CROSS_REGION_USE,
    INVALID_OPERAND_TIME,
    PIPELINE_IMBALANCE,
    PORT_CONFLICT,
    RESULT_DELAY_MISMATCH,
    ScheduleDiagnostic,
    ScheduleVerifierPass,
    VerificationReport,
    verify_schedule,
)
from repro.passes.strength_reduction import StrengthReductionPass

__all__ = [
    "CanonicalizePass",
    "ConstantPropagationPass",
    "CSEPass",
    "DelayEliminationPass",
    "MemPortOptimizationPass",
    "PrecisionOptimizationPass",
    "RangeAnalysis",
    "optimization_pipeline",
    "verification_pipeline",
    "CROSS_REGION_USE",
    "INVALID_OPERAND_TIME",
    "PIPELINE_IMBALANCE",
    "PORT_CONFLICT",
    "RESULT_DELAY_MISMATCH",
    "ScheduleDiagnostic",
    "ScheduleVerifierPass",
    "VerificationReport",
    "verify_schedule",
    "StrengthReductionPass",
    "LegacyCanonicalizePass",
    "LegacyConstantPropagationPass",
    "LegacyCSEPass",
    "LegacyDelayEliminationPass",
    "LegacyStrengthReductionPass",
]
