"""Batched simulation: one compiled design, N independent stimulus lanes.

Elaboration, levelization and compilation are paid once; every signal then
holds a numpy ``int64`` array with one element per *lane* (stimulus set), so
a single pass over the generated step functions advances all N scenarios at
once.  Clocked ``if`` statements become per-lane predicates (generated by
:mod:`.codegen` in its vector dialect), and memories become ``(lanes, depth)``
arrays with gather/scatter access.

:func:`run_design_batch_impl` is the batched counterpart of
:func:`repro.sim.testbench.run_design_impl`: it drives ``start``/``done`` per
lane, models the external interface RAMs per lane, and stops committing a
lane's memory traffic once that lane's drain window closes — reproducing the
single-run protocol lane for lane.

Caveat: lane values live in 64-bit integers, so intermediate (pre-mask)
results wrap at 64 bits where the interpreter's Python ints would not.  All
designs emitted by the code generators mask at 32 bits or less per
assignment, where the two agree; the differential suite enforces this on
every kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.ir.errors import SimulationError
from repro.obs.tracer import TRACER
from repro.sim.engine.cache import compiled_artifacts
from repro.sim.engine.window import SimulationTimeout, last_drain_cycle
from repro.sim.verilog_sim import ExternalModel
from repro.verilog.ast import Design


class BatchedSimulator:
    """Executes a compiled design over N stimulus lanes in lockstep."""

    def __init__(self, design: Design, lanes: int,
                 external_models: Optional[Dict[str, Callable[[], ExternalModel]]] = None):
        if lanes < 1:
            raise SimulationError(f"need at least one lane, got {lanes}")
        self.lanes = lanes
        artifacts = compiled_artifacts(design, external_models, vector=True)
        self.flat = artifacts.flat
        self.lowered = artifacts.lowered
        for width in (list(self.lowered.mem_widths)
                      + list(self.flat.wires.values())
                      + [width for width, _ in self.flat.regs.values()]):
            if width >= 63:
                raise SimulationError(
                    f"batched engine holds lanes in int64; width {width} is "
                    "not supported (use the compiled or interpreted engine)"
                )
        self._comb_fn = artifacts.comb_vector_fn
        self._clock_fn = artifacts.clock_vector_fn
        self._slot_of = self.lowered.slots.slot_of
        self._declared = set(self.flat.wires) | set(self.flat.regs)
        self._mem_masks = [(1 << width) - 1 for width in self.lowered.mem_widths]
        self._input_masks = {name: (1 << width) - 1
                             for name, width in self.flat.inputs.items()}
        self._lane_index = np.arange(lanes)
        # Per-lane instances of every black-box behavioural model.
        external_models = external_models or {}
        self._external_lane_models = [
            [external_models[external.module_name]() for _ in range(lanes)]
            for external in self.flat.externals
        ]
        self._values: List[object] = []
        self._mems: List[np.ndarray] = [
            np.zeros((lanes, depth), dtype=np.int64)
            for depth in self.lowered.mem_depths
        ]
        #: Opt-in :class:`repro.obs.simprofile.BatchSimProfiler`;
        #: None = no cost.
        self.profiler = None
        self.cycle = 0
        self.reset()

    # -- state management --------------------------------------------------------
    def reset(self) -> None:
        # Every slot holds a (lanes,) int64 array so generated comparisons and
        # predicates always see numpy operands, never Python scalars.
        self._values = [np.full(self.lanes, value, dtype=np.int64)
                        for value in self.lowered.slots.reset_values]
        for storage in self._mems:
            storage[:] = 0
        self.cycle = 0

    def _lane_array(self, value) -> np.ndarray:
        array = np.asarray(value, dtype=np.int64)
        if array.ndim == 0:
            return np.full(self.lanes, int(array), dtype=np.int64)
        if array.shape != (self.lanes,):
            raise SimulationError(
                f"expected a scalar or a ({self.lanes},) lane array, got "
                f"shape {array.shape}"
            )
        return array

    def set(self, name: str, value) -> None:
        if name not in self.flat.inputs:
            raise SimulationError(f"'{name}' is not a top-level input")
        masked = np.asarray(value, dtype=np.int64) & self._input_masks[name]
        self._values[self._slot_of[name]] = self._lane_array(masked)

    def get(self, name: str) -> np.ndarray:
        slot = self._slot_of.get(name)
        if slot is None or name not in self._declared:
            raise SimulationError(f"unknown signal '{name}'")
        return self._lane_array(self._values[slot])

    def memory(self, name: str) -> np.ndarray:
        """Contents of an on-chip memory, shape ``(lanes, depth)``."""
        return self._mems[self.lowered.mem_of[name]]

    def find_memories(self, substring: str) -> List[str]:
        return sorted(name for name in self.lowered.mem_of if substring in name)

    # -- evaluation --------------------------------------------------------------
    def eval_comb(self) -> None:
        self._comb_fn(self._values, self._mems)

    def clock_edge(self) -> None:
        reg_updates, mem_updates = self._clock_fn(self._values, self._mems)

        external_updates: List = []
        for external, models in zip(self.flat.externals,
                                    self._external_lane_models):
            input_arrays = {
                port: self._lane_array(
                    self._values[self._slot_of[flat_name]]
                    if flat_name in self._slot_of else 0)
                for port, flat_name in external.input_ports.items()
            }
            lane_outputs: Dict[str, np.ndarray] = {
                port: np.zeros(self.lanes, dtype=np.int64)
                for port in external.output_ports
            }
            for lane, model in enumerate(models):
                outputs = model.clock({port: int(values[lane])
                                       for port, values in input_arrays.items()})
                for port in external.output_ports:
                    lane_outputs[port][lane] = outputs.get(port, 0)
            for port, flat_name in external.output_ports.items():
                mask = (1 << self.flat.regs.get(flat_name, (32, 0))[0]) - 1
                external_updates.append(
                    (self._slot_of[flat_name], lane_outputs[port] & mask)
                )

        profiler = self.profiler
        if profiler is not None:
            profiler.begin_edge()
        names = self.lowered.slots.names if profiler is not None else None
        for slot, value in reg_updates.items():
            new = self._lane_array(value)
            if profiler is not None:
                profiler.on_reg(names[slot],
                                self._lane_array(self._values[slot]) != new)
            self._values[slot] = new
        for mem_index, predicate, address, data in mem_updates:
            storage = self._mems[mem_index]
            depth = storage.shape[1]
            address = self._lane_array(address)
            data = self._lane_array(data)
            valid = (address >= 0) & (address < depth)
            if predicate is not None:
                valid &= np.broadcast_to(np.asarray(predicate), (self.lanes,))
            if profiler is not None:
                profiler.on_mem_write(self.lowered.mem_names[mem_index],
                                      valid, address)
            if valid.any():
                storage[self._lane_index[valid], address[valid]] = (
                    data[valid] & self._mem_masks[mem_index]
                )
        for slot, value in external_updates:
            if profiler is not None:
                changed = self._lane_array(self._values[slot]) != \
                    self._lane_array(value)
                profiler.on_reg(names[slot], changed)
            self._values[slot] = value
        if profiler is not None:
            profiler.end_edge()
        self.cycle += 1

    def step(self, cycles: int = 1) -> None:
        for _ in range(cycles):
            self.eval_comb()
            self.clock_edge()
        self.eval_comb()


class BatchedInterfaceMemory:
    """Per-lane external RAM behind one memref interface (vectorized
    :class:`repro.sim.testbench.InterfaceMemory`)."""

    def __init__(self, prefix: str, memref_type, initials, lanes: int) -> None:
        from repro.sim.testbench import flatten_tensor  # local: avoid cycle

        self.prefix = prefix
        self.memref_type = memref_type
        self.lanes = lanes
        depth = memref_type.num_elements
        width = memref_type.element_type.bitwidth or 32
        self._mask = (1 << width) - 1
        self.data = np.zeros((lanes, depth), dtype=np.int64)
        if initials is not None:
            if len(initials) != lanes:
                raise SimulationError(
                    f"memory '{prefix}': got {len(initials)} initial tensors "
                    f"for {lanes} lanes"
                )
            for lane, initial in enumerate(initials):
                self.data[lane] = np.asarray(
                    flatten_tensor(memref_type, initial), dtype=np.int64
                ) & self._mask
        self._read_mask: Optional[np.ndarray] = None
        self._read_addr: Optional[np.ndarray] = None
        self._write_mask: Optional[np.ndarray] = None
        self._write_addr: Optional[np.ndarray] = None
        self._write_data: Optional[np.ndarray] = None
        self.reads = np.zeros(lanes, dtype=np.int64)
        self.writes = np.zeros(lanes, dtype=np.int64)

    # -- per-cycle protocol -----------------------------------------------------
    def sample(self, sim: BatchedSimulator) -> None:
        address = self._get(sim, f"{self.prefix}_addr")
        self._read_mask = None
        self._write_mask = None
        if self.memref_type.can_read:
            self._read_mask = self._get(sim, f"{self.prefix}_rd_en") != 0
            self._read_addr = address
            self.reads += self._read_mask
        if self.memref_type.can_write:
            self._write_mask = self._get(sim, f"{self.prefix}_wr_en") != 0
            self._write_addr = address
            self._write_data = self._get(sim, f"{self.prefix}_wr_data")
            self.writes += self._write_mask

    def commit(self, sim: BatchedSimulator,
               active: Optional[np.ndarray] = None) -> None:
        """Apply sampled accesses at the edge (read-before-write); ``active``
        masks out lanes whose drain window has closed."""
        depth = self.data.shape[1]
        lane_index = np.arange(self.lanes)
        if self._read_mask is not None and self._read_mask.any():
            in_bounds = (self._read_addr >= 0) & (self._read_addr < depth)
            safe = np.where(in_bounds, self._read_addr, 0)
            fetched = np.where(in_bounds, self.data[lane_index, safe], 0)
            current = sim.get(f"{self.prefix}_rd_data")
            sim.set(f"{self.prefix}_rd_data",
                    np.where(self._read_mask, fetched, current))
        if self._write_mask is not None:
            valid = self._write_mask & (self._write_addr >= 0) & \
                (self._write_addr < depth)
            if active is not None:
                valid &= active
            if valid.any():
                self.data[lane_index[valid], self._write_addr[valid]] = (
                    self._write_data[valid] & self._mask
                )

    @staticmethod
    def _get(sim: BatchedSimulator, name: str) -> np.ndarray:
        try:
            return sim.get(name)
        except SimulationError:
            return np.zeros(sim.lanes, dtype=np.int64)

    # -- results -----------------------------------------------------------------
    def as_array(self, lane: int) -> np.ndarray:
        from repro.sim.testbench import unflatten_tensor  # local: avoid cycle
        return unflatten_tensor(self.memref_type, self.data[lane])

    def as_arrays(self) -> np.ndarray:
        return np.stack([self.as_array(lane) for lane in range(self.lanes)])


@dataclass
class BatchedSimulationRun:
    """Outcome of :func:`run_design_batch_impl` (per-lane arrays)."""

    lanes: int
    cycles: np.ndarray
    done: np.ndarray
    results: Dict[str, np.ndarray] = field(default_factory=dict)
    memories: Dict[str, BatchedInterfaceMemory] = field(default_factory=dict)
    simulator: Optional[BatchedSimulator] = None
    #: One :class:`repro.obs.simprofile.SimProfile` per lane when the run
    #: was profiled (``run_design_batch_impl(..., profiler=...)``).
    profiles: Optional[List] = None

    def memory_array(self, name: str, lane: Optional[int] = None) -> np.ndarray:
        if lane is None:
            return self.memories[name].as_arrays()
        return self.memories[name].as_array(lane)


def run_design_batch_impl(
    design: Design,
    memories: Optional[Dict[str, tuple]] = None,
    scalar_inputs: Optional[Dict[str, object]] = None,
    lanes: Optional[int] = None,
    external_models: Optional[Dict[str, Callable[[], ExternalModel]]] = None,
    max_cycles: int = 100000,
    drain_cycles: int = 4,
    profiler=None,
) -> BatchedSimulationRun:
    """Run one design over N stimulus sets from ``start`` to ``done``.

    ``memories`` maps each memref argument name to ``(MemrefType, initials)``
    where ``initials`` is a sequence of N per-lane tensors; ``scalar_inputs``
    values may be scalars (shared) or per-lane arrays.  ``lanes`` is inferred
    from the first memory when omitted.  ``profiler`` is an optional
    :class:`repro.obs.simprofile.BatchSimProfiler`; the run then carries one
    per-lane profile in ``BatchedSimulationRun.profiles``.  This is the core
    that :meth:`repro.flow.Flow.simulate_batch` drives.
    """
    memories = memories or {}
    if lanes is None:
        for _, initials in memories.values():
            if initials is not None:
                lanes = len(initials)
                break
    if lanes is None:
        raise SimulationError(
            "run_design_batch_impl needs `lanes` when no memory provides "
            "per-lane initial data"
        )
    simulator = BatchedSimulator(design, lanes,
                                 external_models=external_models)
    if profiler is not None:
        profiler.bind(simulator)
    interface_memories = {
        name: BatchedInterfaceMemory(name, memref_type, initials, lanes)
        for name, (memref_type, initials) in memories.items()
    }
    for name, value in (scalar_inputs or {}).items():
        simulator.set(name, value)

    done_seen = np.zeros(lanes, dtype=bool)
    done_cycle = np.zeros(lanes, dtype=np.int64)
    result_names = [name for name in simulator.flat.outputs
                    if name.startswith("result")]
    results = {name: np.zeros(lanes, dtype=np.int64) for name in result_names}

    with TRACER.span("sim.run", cat="sim", engine="batched",
                     lanes=lanes) as sim_span:
        for cycle in range(max_cycles):
            simulator.set("start", 1 if cycle == 0 else 0)
            simulator.eval_comb()
            for memory in interface_memories.values():
                memory.sample(simulator)
            newly_done = ~done_seen & (simulator.get("done") != 0)
            if newly_done.any():
                done_cycle[newly_done] = cycle
                for name in result_names:
                    results[name] = np.where(newly_done, simulator.get(name),
                                             results[name])
                done_seen |= newly_done
            # A lane commits memory traffic (and profiles events) until its
            # drain window closes, exactly like the single-lane loop in
            # run_design_impl.  done_seen/done_cycle are final for this cycle
            # here, so hoisting the mask above clock_edge is
            # behaviour-preserving.
            active = ~done_seen | \
                (cycle <= last_drain_cycle(done_cycle, drain_cycles))
            if profiler is not None:
                profiler.set_active(active)
                for memory in interface_memories.values():
                    profiler.on_port(memory.prefix, memory._read_mask,
                                     memory._write_mask)
            simulator.clock_edge()
            for memory in interface_memories.values():
                memory.commit(simulator, active)
            if done_seen.all() and \
                    cycle >= int(last_drain_cycle(done_cycle,
                                                  drain_cycles).max()):
                break
        sim_span.set(done_lanes=int(done_seen.sum()))

    if not done_seen.all():
        # Silently returning zero-filled results for hung lanes is the bug
        # this raise replaced: name the lanes so sweeps can point at the
        # offending stimulus sets.
        undone = [int(lane) for lane in np.flatnonzero(~done_seen)]
        raise SimulationTimeout(
            f"lanes {undone} never asserted done within {max_cycles} cycles "
            "(batched engine)", undone_lanes=undone, max_cycles=max_cycles)

    return BatchedSimulationRun(
        lanes=lanes,
        cycles=done_cycle + 1,
        done=done_seen,
        results=results,
        memories=interface_memories,
        simulator=simulator,
        profiles=profiler.finish() if profiler is not None else None,
    )


__all__ = [
    "BatchedInterfaceMemory",
    "BatchedSimulationRun",
    "BatchedSimulator",
    "run_design_batch_impl",
]
