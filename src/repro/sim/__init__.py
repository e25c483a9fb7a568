"""Cycle-accurate simulation of generated designs (RTL-simulation substitute).

Several execution engines share one API: the interpreted reference simulator,
the compiled event-driven engine (``run_design_impl(..., engine="compiled")``)
and the fused whole-run vector engine (``engine="vector"``, the default, which
enters the interpreter once per design rather than once per cycle);
:func:`run_design_batch_impl` additionally vectorizes one compiled design over
N stimulus sets.  ``run_design_impl`` runs the engine its caller names; see
:mod:`repro.sim.engine` for how an unnamed engine is chosen.  Runs that never
assert ``done`` raise :class:`SimulationTimeout` in every engine.
"""

from repro.sim.engine import (
    BatchedInterfaceMemory,
    BatchedSimulationRun,
    BatchedSimulator,
    CompiledSimulator,
    DifferentialSimulator,
    DivergenceError,
    SimulationTimeout,
    VectorUnsupported,
    available_engines,
    create_simulator,
    last_drain_cycle,
    run_design_batch_impl,
    run_design_vector,
    set_cache_capacity,
)
from repro.sim.testbench import (
    InterfaceMemory,
    SimulationRun,
    flatten_tensor,
    run_design_impl,
    unflatten_tensor,
)
from repro.sim.verilog_sim import (
    ExternalModel,
    PipelinedMultiplierModel,
    Simulator,
)

__all__ = [
    "BatchedInterfaceMemory",
    "BatchedSimulationRun",
    "BatchedSimulator",
    "CompiledSimulator",
    "DifferentialSimulator",
    "DivergenceError",
    "InterfaceMemory",
    "SimulationRun",
    "SimulationTimeout",
    "VectorUnsupported",
    "available_engines",
    "create_simulator",
    "flatten_tensor",
    "last_drain_cycle",
    "run_design_batch_impl",
    "run_design_impl",
    "run_design_vector",
    "set_cache_capacity",
    "unflatten_tensor",
    "ExternalModel",
    "PipelinedMultiplierModel",
    "Simulator",
]
