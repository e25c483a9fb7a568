"""Testbench helpers: drive a generated design and model external memories.

A generated HIR module exposes each memref argument as an address/enable/data
interface (Section 4.6).  :class:`InterfaceMemory` models the external RAM
behind such an interface with single-cycle read latency, and
:func:`run_design_impl` drives the whole design from ``start`` to ``done`` —
the reproduction's stand-in for RTL simulation of the synthesized
accelerator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.ir.errors import SimulationError
from repro.hir.types import MemrefType
from repro.obs.tracer import TRACER
from repro.sim.engine import create_simulator
from repro.sim.engine.window import SimulationTimeout, last_drain_cycle
from repro.verilog.ast import Design

if TYPE_CHECKING:  # the vector engine runs without the interpreter
    from repro.sim.verilog_sim import ExternalModel, Simulator


def flatten_tensor(memref_type: MemrefType, data) -> List[int]:
    """Row-major flatten of ``data`` (nested lists or numpy) to ints."""
    array = np.asarray(data, dtype=np.int64)
    expected = tuple(memref_type.shape)
    if array.shape != expected:
        raise SimulationError(
            f"tensor shape {array.shape} does not match memref shape {expected}"
        )
    return [int(v) for v in array.reshape(-1)]


def unflatten_tensor(memref_type: MemrefType, data: Sequence[int]) -> np.ndarray:
    width = memref_type.element_type.bitwidth or 32
    array = np.array(list(data), dtype=np.int64).reshape(memref_type.shape)
    # Interpret stored bit patterns as signed two's complement.
    sign_bit = 1 << (width - 1)
    array = np.where(array >= sign_bit, array - (1 << width), array)
    return array


class InterfaceMemory:
    """External RAM behind one memref interface of the top module."""

    def __init__(self, prefix: str, memref_type: MemrefType,
                 initial=None) -> None:
        self.prefix = prefix
        self.memref_type = memref_type
        depth = memref_type.num_elements
        if initial is None:
            self.data: List[int] = [0] * depth
        else:
            self.data = flatten_tensor(memref_type, initial)
        width = memref_type.element_type.bitwidth or 32
        self._mask = (1 << width) - 1
        self.data = [value & self._mask for value in self.data]
        self._pending_read: Optional[int] = None
        self._pending_write: Optional[tuple] = None
        self.reads = 0
        self.writes = 0

    # -- per-cycle protocol -----------------------------------------------------
    def sample(self, sim: Simulator) -> None:
        """Sample the interface outputs after combinational settle."""
        self._pending_read = None
        self._pending_write = None
        address = self._get(sim, f"{self.prefix}_addr")
        if self.memref_type.can_read and self._get(sim, f"{self.prefix}_rd_en"):
            self._pending_read = address
            self.reads += 1
        if self.memref_type.can_write and self._get(sim, f"{self.prefix}_wr_en"):
            self._pending_write = (address, self._get(sim, f"{self.prefix}_wr_data"))
            self.writes += 1

    def commit(self, sim: Simulator) -> None:
        """Apply the sampled access at the clock edge (read-before-write)."""
        if self._pending_read is not None and self.memref_type.can_read:
            value = 0
            if 0 <= self._pending_read < len(self.data):
                value = self.data[self._pending_read]
            sim.set(f"{self.prefix}_rd_data", value)
        if self._pending_write is not None:
            address, data = self._pending_write
            if 0 <= address < len(self.data):
                self.data[address] = data & self._mask

    @staticmethod
    def _get(sim: Simulator, name: str) -> int:
        try:
            return sim.get(name)
        except SimulationError:
            return 0

    # -- results -------------------------------------------------------------------
    def as_array(self) -> np.ndarray:
        return unflatten_tensor(self.memref_type, self.data)


@dataclass
class SimulationRun:
    """Outcome of :func:`run_design_impl`."""

    cycles: int
    done: bool
    results: Dict[str, int] = field(default_factory=dict)
    memories: Dict[str, InterfaceMemory] = field(default_factory=dict)
    simulator: Optional[Simulator] = None
    #: The run's :class:`repro.obs.simprofile.SimProfile` when it was
    #: profiled (``run_design_impl(..., profiler=...)``).
    profile: Optional[object] = None
    #: The engine that executed the run (always the one it was given:
    #: engine substitution is decided by :meth:`repro.flow.Flow.simulate`).
    engine: Optional[str] = None

    def memory_array(self, name: str) -> np.ndarray:
        return self.memories[name].as_array()


def run_design_impl(
    design: Design,
    memories: Optional[Dict[str, tuple]] = None,
    scalar_inputs: Optional[Dict[str, int]] = None,
    external_models: Optional[Dict[str, Callable[[], ExternalModel]]] = None,
    max_cycles: int = 100000,
    drain_cycles: int = 4,
    *,
    engine: str,
    profiler=None,
) -> SimulationRun:
    """Run a generated design from ``start`` until its ``done`` pulse.

    ``memories`` maps each memref argument name to ``(MemrefType, initial
    data)``; ``scalar_inputs`` provides values for primitive arguments.
    ``engine`` names the simulation engine (``"interpreted"``,
    ``"compiled"``, ``"differential"`` or the fused whole-run ``"vector"``);
    there is no default here — :meth:`repro.flow.FlowConfig.resolve_engine`
    decides an unnamed one.  ``profiler`` is an
    optional :class:`repro.obs.simprofile.SimProfiler`; the run then carries
    its profile in ``SimulationRun.profile``.  The vector engine verifies the
    observed ``done`` cycle against the static one its simulator image
    records (:mod:`repro.sim.engine.vector`).  ``design`` may also be a
    :class:`repro.flow.VerilogArtifact`: the vector engine (and the
    differential engine's vector leg) then lowers it only when a store blob
    misses, and every other engine lowers it up front.

    The named engine executes the run, or its error propagates: engine
    substitution is decided once, by :meth:`repro.flow.Flow.simulate`.  A
    run that exhausts ``max_cycles`` without ``done`` raises
    :class:`~repro.sim.engine.window.SimulationTimeout` — every engine shares
    that contract.
    """
    if engine == "vector":
        from repro.sim.engine.vector import run_design_vector
        return run_design_vector(
            design, memories=memories, scalar_inputs=scalar_inputs,
            external_models=external_models,
            max_cycles=max_cycles, drain_cycles=drain_cycles,
            profiler=profiler)

    source = design
    if not isinstance(design, Design):
        design = design.design
    simulator = create_simulator(design, external_models=external_models,
                                 engine=engine)
    if profiler is not None:
        profiler.bind(simulator)
    interface_memories: Dict[str, InterfaceMemory] = {}
    for name_, (memref_type, initial) in (memories or {}).items():
        interface_memories[name_] = InterfaceMemory(name_, memref_type, initial)

    for name_, value in (scalar_inputs or {}).items():
        simulator.set(name_, value)

    done_seen = False
    done_cycle = 0
    results: Dict[str, int] = {}

    with TRACER.span("sim.run", cat="sim", engine=engine) as sim_span:
        for cycle in range(max_cycles):
            simulator.set("start", 1 if cycle == 0 else 0)
            simulator.eval_comb()
            for memory in interface_memories.values():
                memory.sample(simulator)
            if not done_seen and simulator.get("done"):
                done_seen = True
                done_cycle = cycle
                for name_ in simulator.flat.outputs:
                    if name_.startswith("result"):
                        results[name_] = simulator.get(name_)
            if profiler is not None:
                for memory in interface_memories.values():
                    profiler.on_port(memory.prefix,
                                     memory._pending_read is not None,
                                     memory._pending_write is not None)
            simulator.clock_edge()
            for memory in interface_memories.values():
                memory.commit(simulator)
            # Let writes scheduled after the done pulse drain; the shared
            # window helper keeps this break aligned with the batched and
            # vector runners.
            if done_seen and cycle >= last_drain_cycle(done_cycle,
                                                       drain_cycles):
                break
        sim_span.set(cycles=done_cycle + 1 if done_seen else max_cycles,
                     done=done_seen)

    if not done_seen:
        raise SimulationTimeout(
            f"design never asserted done within {max_cycles} cycles "
            f"({engine} engine)", undone_lanes=(0,), max_cycles=max_cycles)

    run = SimulationRun(
        cycles=done_cycle + 1,
        done=True,
        results=results,
        memories=interface_memories,
        simulator=simulator,
        profile=(profiler.finish(engine) if profiler is not None else None),
        engine=engine,
    )
    if engine == "differential" and profiler is None and not external_models:
        _vector_leg(run, source, memories, scalar_inputs, max_cycles,
                    drain_cycles)
    return run


def _vector_leg(run: SimulationRun, design, memories, scalar_inputs,
                max_cycles: int, drain_cycles: int) -> None:
    """The differential engine's third leg: replay the run through the fused
    vector engine and require bit-exactness against the lockstep pair.

    Its caller skips external models and profilers, the only runs the fused
    engine refuses; any mismatch or vector-side timeout is a
    :class:`~repro.sim.engine.differential.DivergenceError`.  A fused run
    this leg builds records the same static done cycle a ``vector`` run
    would, and the replay is checked against it.
    """
    from repro.sim.engine.differential import DivergenceError
    from repro.sim.engine.vector import run_design_vector

    try:
        replay = run_design_vector(
            design, memories=memories, scalar_inputs=scalar_inputs,
            max_cycles=max_cycles, drain_cycles=drain_cycles)
    except SimulationTimeout as error:
        raise DivergenceError(
            f"vector leg timed out where the lockstep pair finished: {error}"
        ) from error
    if replay.cycles != run.cycles:
        raise DivergenceError(
            f"vector leg diverged: cycles {replay.cycles} != {run.cycles}")
    if replay.results != run.results:
        raise DivergenceError(
            f"vector leg diverged: results {replay.results} != {run.results}")
    for name, memory in run.memories.items():
        other = replay.memories[name]
        if other.data != memory.data:
            raise DivergenceError(
                f"vector leg diverged on memory '{name}'")
        if (other.reads, other.writes) != (memory.reads, memory.writes):
            raise DivergenceError(
                f"vector leg diverged on '{name}' access counts: "
                f"{(other.reads, other.writes)} != "
                f"{(memory.reads, memory.writes)}")
