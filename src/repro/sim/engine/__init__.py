"""Pluggable simulation engines behind the ``Simulator``/``run_design_impl`` API.

Four named engines execute the same elaborated design with the same
cycle-level semantics.  Three are per-cycle simulators:

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

The fourth, ``vector`` (:mod:`~repro.sim.engine.vector`), is a *run-level*
engine and the default (:data:`DEFAULT_ENGINE`): it compiles the entire
start-to-done run — prologue, steady state, drain — into one fused generated
program, so there is no per-cycle simulator object to instantiate.  It is
selectable everywhere a per-cycle engine is (``run_design_impl``,
``REPRO_SIM_ENGINE``, ``FlowConfig``, ``--engine``) but not through
:func:`create_simulator`.  It runs every pure design, with or without a
static steady state; :meth:`repro.flow.Flow.simulate` runs the two kinds of
run it cannot fuse (external models, profiling) on the compiled engine and
records why in provenance.

The batched engine (:mod:`~repro.sim.engine.batch`) vectorizes N stimulus
sets over one compiled design; it has its own entry point,
:func:`~repro.sim.engine.batch.run_design_batch_impl`, because its state is
per-lane arrays rather than ints.

``run_design_impl`` and :func:`create_simulator` run the engine their caller
names.  An engine nobody named is decided in one place,
:meth:`repro.flow.FlowConfig.resolve_engine`: per call
(``flow.simulate(seed, engine="compiled")``), then ``FlowConfig.engine``,
then ``REPRO_SIM_ENGINE`` (read at call time), then :data:`DEFAULT_ENGINE`.

Each engine's module is imported when that engine runs (:data:`ENGINES`,
and the lazily re-exported names below): a ``vector`` run loads neither
the interpreter nor the compiled, differential or batched engine.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro._lazy import lazy_exports
from repro.ir.errors import SimulationError

if TYPE_CHECKING:
    from repro.sim.verilog_sim import ExternalModel
    from repro.verilog.ast import Design

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.sim.engine.batch": ("BatchedInterfaceMemory",
                               "BatchedSimulationRun", "BatchedSimulator",
                               "run_design_batch_impl"),
    "repro.sim.engine.cache": ("clear_compile_cache", "compile_cache_size"),
    "repro.sim.engine.compiled": ("CompiledSimulator",),
    "repro.sim.engine.differential": ("DifferentialSimulator",
                                      "DivergenceError"),
    "repro.sim.engine.levelize": ("LoweredDesign", "lower_design"),
    "repro.sim.engine.vector": ("VectorState", "VectorUnsupported",
                                "run_design_vector", "steady_state_of"),
    "repro.sim.engine.window": ("SimulationTimeout", "last_drain_cycle"),
})
__all__ = sorted([*__all__, "DEFAULT_ENGINE", "ENGINES", "RUN_ENGINES",
                  "available_engines", "create_simulator"])

#: Per-cycle engines: name -> (module, simulator class), imported when the
#: engine runs.
ENGINES: Dict[str, Tuple[str, str]] = {
    "interpreted": ("repro.sim.verilog_sim", "Simulator"),
    "compiled": ("repro.sim.engine.compiled", "CompiledSimulator"),
    "differential": ("repro.sim.engine.differential", "DifferentialSimulator"),
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
    external_models: Optional[Dict[str, Callable[[], ExternalModel]]] = None,
    *,
    engine: str,
):
    """Instantiate the per-cycle ``engine`` for ``design``."""
    entry = ENGINES.get(engine)
    if entry is None:
        if engine in RUN_ENGINES:
            raise SimulationError(
                f"engine '{engine}' executes whole runs and has no per-cycle "
                "simulator; use run_design_impl(..., engine="
                f"{engine!r}) instead of create_simulator")
        raise SimulationError(
            f"unknown simulation engine '{engine}'; choose one of "
            f"{available_engines()}"
        )
    module, name = entry
    simulator_class = getattr(importlib.import_module(module), name)
    return simulator_class(design, external_models=external_models)
