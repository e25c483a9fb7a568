"""Verification and optimization passes of the HIR compiler (Sections 6 and 7).

The names below are re-exported lazily, so a process that a warm store
serves never loads a pass.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.passes.canonicalize": ("CanonicalizePass",),
    "repro.passes.constant_propagation": ("ConstantPropagationPass",),
    "repro.passes.cse": ("CSEPass",),
    "repro.passes.delay_elimination": ("DelayEliminationPass",),
    "repro.passes.legacy": ("LegacyCanonicalizePass",
                            "LegacyConstantPropagationPass", "LegacyCSEPass",
                            "LegacyDelayEliminationPass",
                            "LegacyStrengthReductionPass"),
    "repro.passes.memport_opt": ("MemPortOptimizationPass",),
    "repro.passes.precision_opt": ("PrecisionOptimizationPass",
                                   "RangeAnalysis"),
    "repro.passes.pipeline": ("optimization_pipeline",
                              "verification_pipeline"),
    "repro.passes.schedule_verifier": ("CROSS_REGION_USE",
                                       "INVALID_OPERAND_TIME",
                                       "PIPELINE_IMBALANCE", "PORT_CONFLICT",
                                       "RESULT_DELAY_MISMATCH",
                                       "ScheduleDiagnostic",
                                       "ScheduleVerifierPass",
                                       "VerificationReport",
                                       "verify_schedule"),
    "repro.passes.strength_reduction": ("StrengthReductionPass",),
})
