"""Standard pass pipelines for the HIR compiler.

Two configurations mirror the paper's evaluation:

* ``optimization_pipeline()`` — the full "auto opt" pipeline (Table 4's "HIR
  (auto opt)" row and the Table 5/6 HIR results).
* ``verification_pipeline()`` — schedule verification only ("HIR (no opt)").
"""

from __future__ import annotations

from repro.ir.pass_manager import PassManager
from repro.passes.canonicalize import CanonicalizePass
from repro.passes.constant_propagation import ConstantPropagationPass
from repro.passes.cse import CSEPass
from repro.passes.delay_elimination import DelayEliminationPass
from repro.passes.memport_opt import MemPortOptimizationPass
from repro.passes.precision_opt import PrecisionOptimizationPass
from repro.passes.schedule_verifier import ScheduleVerifierPass
from repro.passes.strength_reduction import StrengthReductionPass


def verification_pipeline(raise_on_error: bool = True,
                          verify_each: bool = True) -> PassManager:
    """Schedule verification only (no optimization)."""
    manager = PassManager(verify_each=verify_each)
    manager.add(ScheduleVerifierPass(raise_on_error=raise_on_error))
    return manager


def optimization_pipeline(verify_schedule: bool = True,
                          verify_each: bool = True,
                          legacy: bool = False) -> PassManager:
    """The full HIR optimization pipeline used for the paper's evaluation.

    ``legacy=True`` assembles the same pipeline from the seed (full re-walk)
    pass implementations in :mod:`repro.passes.legacy`; it exists as the
    baseline for compile-time benchmarks and as a differential oracle — both
    variants must produce bit-identical IR and Verilog.
    """
    manager = PassManager(verify_each=verify_each)
    if verify_schedule:
        manager.add(ScheduleVerifierPass())
    if legacy:
        from repro.passes.legacy import (
            LegacyCanonicalizePass,
            LegacyConstantPropagationPass,
            LegacyCSEPass,
            LegacyDelayEliminationPass,
            LegacyStrengthReductionPass,
        )

        manager.add(
            LegacyCanonicalizePass(),
            LegacyConstantPropagationPass(),
            LegacyCSEPass(),
            LegacyStrengthReductionPass(),
            LegacyConstantPropagationPass(),
            PrecisionOptimizationPass(),
            LegacyDelayEliminationPass(),
            MemPortOptimizationPass(),
            LegacyCanonicalizePass(),
        )
        return manager
    manager.add(
        CanonicalizePass(),
        ConstantPropagationPass(),
        CSEPass(),
        StrengthReductionPass(),
        ConstantPropagationPass(),
        PrecisionOptimizationPass(),
        DelayEliminationPass(),
        MemPortOptimizationPass(),
        CanonicalizePass(),
    )
    return manager
