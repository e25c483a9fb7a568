"""Pluggable simulation engines behind the ``Simulator``/``run_design_impl`` API.

Three engines execute the same elaborated design with the same cycle-level
semantics:

``interpreted``
    The original AST-walking :class:`~repro.sim.verilog_sim.Simulator` —
    simple, the semantic reference.
``compiled``
    :class:`~repro.sim.engine.compiled.CompiledSimulator` — levelizes the
    netlist once, specializes every assignment into generated Python, and
    re-evaluates only the fanout cone of signals that changed.
``differential``
    :class:`~repro.sim.engine.differential.DifferentialSimulator` — runs both
    of the above in lockstep and raises on the first trace divergence (the
    cross-checking harness used by the test suite).

The batched engine (:mod:`~repro.sim.engine.batch`) vectorizes N stimulus
sets over one compiled design; it has its own entry point,
:func:`~repro.sim.engine.batch.run_design_batch_impl`, because its state is
per-lane arrays rather than ints.

A fourth name, ``vector`` (:mod:`~repro.sim.engine.vector`), is a *run-level*
engine and the default (:data:`DEFAULT_ENGINE`): it compiles the entire
start-to-done run — prologue, steady state, drain — into one fused generated
program, so there is no per-cycle simulator object to instantiate.  It is
selectable everywhere a per-cycle engine is (``run_design_impl``,
``REPRO_SIM_ENGINE``, ``FlowConfig``, ``--engine``) but not through
:func:`create_simulator`.  :meth:`repro.flow.Flow.simulate` runs designs the
fused program cannot execute (no static steady state, external models,
profiling) on the compiled engine and records why in provenance.

``run_design_impl`` and :func:`create_simulator` run the engine their caller
names.  An engine nobody named is decided in one place,
:meth:`repro.flow.FlowConfig.resolve_engine`: per call
(``flow.simulate(seed, engine="compiled")``), then ``FlowConfig.engine``,
then ``REPRO_SIM_ENGINE`` (read at call time), then :data:`DEFAULT_ENGINE`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.ir.errors import SimulationError
from repro.sim.engine.batch import (
    BatchedInterfaceMemory,
    BatchedSimulationRun,
    BatchedSimulator,
    run_design_batch_impl,
)
from repro.sim.engine.cache import (
    clear_compile_cache,
    compile_cache_size,
    set_cache_capacity,
)
from repro.sim.engine.compiled import CompiledSimulator
from repro.sim.engine.differential import DifferentialSimulator, DivergenceError
from repro.sim.engine.levelize import LoweredDesign, lower_design
from repro.sim.engine.vector import (
    VectorState,
    VectorUnsupported,
    run_design_vector,
    steady_state_of,
)
from repro.sim.engine.window import SimulationTimeout, last_drain_cycle
from repro.sim.verilog_sim import ExternalModel, Simulator
from repro.verilog.ast import Design

ENGINES: Dict[str, type] = {
    "interpreted": Simulator,
    "compiled": CompiledSimulator,
    "differential": DifferentialSimulator,
}

#: Run-level engines: valid everywhere an engine *name* is accepted, but they
#: execute whole runs through :func:`repro.sim.testbench.run_design_impl`
#: rather than exposing a per-cycle simulator class.
RUN_ENGINES: Tuple[str, ...] = ("vector",)

#: The engine :meth:`repro.flow.FlowConfig.resolve_engine` picks when neither
#: the call, the config nor ``REPRO_SIM_ENGINE`` names one.
DEFAULT_ENGINE = "vector"


def available_engines() -> list:
    """Names accepted by ``run_design_impl(..., engine=...)``."""
    return sorted([*ENGINES, *RUN_ENGINES])


def create_simulator(
    design: Design,
    top: Optional[str] = None,
    external_models: Optional[Dict[str, Callable[[], ExternalModel]]] = None,
    *,
    engine: str,
):
    """Instantiate the per-cycle ``engine`` for ``design``."""
    simulator_class = ENGINES.get(engine)
    if simulator_class is None:
        if engine in RUN_ENGINES:
            raise SimulationError(
                f"engine '{engine}' executes whole runs and has no per-cycle "
                "simulator; use run_design_impl(..., engine="
                f"{engine!r}) instead of create_simulator")
        raise SimulationError(
            f"unknown simulation engine '{engine}'; choose one of "
            f"{available_engines()}"
        )
    return simulator_class(design, top=top, external_models=external_models)


__all__ = [
    "BatchedInterfaceMemory",
    "BatchedSimulationRun",
    "BatchedSimulator",
    "CompiledSimulator",
    "DEFAULT_ENGINE",
    "DifferentialSimulator",
    "DivergenceError",
    "ENGINES",
    "LoweredDesign",
    "RUN_ENGINES",
    "SimulationTimeout",
    "VectorState",
    "VectorUnsupported",
    "available_engines",
    "clear_compile_cache",
    "compile_cache_size",
    "create_simulator",
    "last_drain_cycle",
    "lower_design",
    "run_design_batch_impl",
    "run_design_vector",
    "set_cache_capacity",
    "steady_state_of",
]
