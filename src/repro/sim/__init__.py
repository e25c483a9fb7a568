"""Cycle-accurate simulation of generated designs (RTL-simulation substitute).

Several execution engines share one API: the interpreted reference simulator,
the compiled event-driven engine (``run_design_impl(..., engine="compiled")``)
and the fused whole-run vector engine (``engine="vector"``, which enters the
interpreter once per design rather than once per cycle);
:func:`run_design_batch_impl` additionally vectorizes one compiled design over
N stimulus sets.  See :mod:`repro.sim.engine` for engine selection.  Runs that
never assert ``done`` raise :class:`SimulationTimeout` in every engine.
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
    get_default_engine,
    last_drain_cycle,
    run_design_batch_impl,
    run_design_vector,
    set_cache_capacity,
    set_default_engine,
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
    "get_default_engine",
    "last_drain_cycle",
    "run_design_batch_impl",
    "run_design_impl",
    "run_design_vector",
    "set_cache_capacity",
    "set_default_engine",
    "unflatten_tensor",
    "ExternalModel",
    "PipelinedMultiplierModel",
    "Simulator",
]
