"""Deterministic fault injection and recovery primitives.

:mod:`repro.resilience.faults` provides the seeded :class:`FaultPlan` and
the :func:`fault_point` hooks that :mod:`repro.store`, the ``repro serve``
tier (:mod:`repro.serve`) and the simulation-engine compile path declare.
:class:`WorkerError` is the typed error the serve pool raises when a job
cannot be executed even after its in-place retries, or times out.

See the README "Robustness & persistence" section for the fault-point map
and the degradation ladder.
"""

from repro.ir.errors import HLSError
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    InjectedError,
    InjectedFault,
    InjectedIOError,
    TornWrite,
    active_plan,
    bump,
    fault_point,
    install_plan,
    reset_resilience_counters,
    resilience_counters,
    set_plan,
)


class WorkerError(HLSError):
    """A serve-pool job failed every in-place retry, or its request timed
    out (:mod:`repro.serve.pool`)."""


__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultPlanError",
    "FaultRule",
    "InjectedError",
    "InjectedFault",
    "InjectedIOError",
    "TornWrite",
    "WorkerError",
    "active_plan",
    "bump",
    "fault_point",
    "install_plan",
    "reset_resilience_counters",
    "resilience_counters",
    "set_plan",
]
