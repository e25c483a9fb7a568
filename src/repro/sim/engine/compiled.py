"""The compiled, event-driven simulation engine.

Drop-in replacement for the interpreted :class:`~repro.sim.verilog_sim.
Simulator` (same ``set``/``get``/``step``/``memory`` surface, selected with
``run_design_impl(..., engine="compiled")``).  Two ideas make it fast:

1. **Compilation** — the elaborated netlist is levelized once and every
   continuous assignment / clocked block is specialized into generated
   Python with masks baked in and slot indices bound as literals or, for
   the per-assignment step functions, as parameter defaults (:mod:`.codegen`),
   so a cycle executes straight-line bytecode instead of an AST walk.
2. **Event-driven scheduling** — writes (``set``, register commits, memory
   commits, external models) mark only the fanout cone of the changed
   signal dirty; ``eval_comb`` re-evaluates just those assignments, in
   topological order via a min-heap over assignment indices.  When most of
   the design is dirty (e.g. right after reset) it falls back to the
   straight-line full pass, which is cheaper than scheduling.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional

from repro.ir.errors import SimulationError
from repro.sim.engine.cache import compiled_artifacts
from repro.sim.verilog_sim import ExternalModel
from repro.verilog.ast import Design

#: Above this fraction of dirty assignments, a straight-line full pass beats
#: the per-assignment scheduling overhead.
FULL_EVAL_FRACTION = 0.25


class CompiledSimulator:
    """Executes a compiled, levelized design cycle by cycle."""

    def __init__(self, design: Design,
                 external_models: Optional[Dict[str, Callable[[], ExternalModel]]] = None):
        artifacts = compiled_artifacts(design, external_models, vector=False)
        self.flat = artifacts.flat
        self.lowered = artifacts.lowered
        self._step_fns = artifacts.step_fns
        self._clock_fn = artifacts.clock_fn

        slots = self.lowered.slots
        self._slot_of = slots.slot_of
        self._declared = set(self.flat.wires) | set(self.flat.regs)
        self._num_assigns = self.lowered.num_assigns
        self._assign_targets = self.lowered.assign_targets
        self._slot_fanout = self.lowered.slot_fanout
        self._slot_marks = self.lowered.slot_marks
        self._mem_fanout = self.lowered.mem_fanout
        self._mem_masks = [(1 << width) - 1 for width in self.lowered.mem_widths]
        self._input_masks = {name: (1 << width) - 1
                             for name, width in self.flat.inputs.items()}
        self._external_port_masks = [
            {port: (1 << self.flat.regs.get(flat_name, (32, 0))[0]) - 1
             for port, flat_name in external.output_ports.items()}
            for external in self.flat.externals
        ]

        self._values: List[int] = []
        self._mems: List[List[int]] = [[0] * depth
                                       for depth in self.lowered.mem_depths]
        #: Opt-in :class:`repro.obs.simprofile.SimProfiler`; None = no cost.
        self.profiler = None
        self._pending: List[bool] = []
        self._dirty: List[int] = []
        self.cycle = 0
        self.stats = {"comb_calls": 0, "full_evals": 0,
                      "event_assign_evals": 0, "full_assign_evals": 0}
        self.reset()

    # -- state management --------------------------------------------------------
    def reset(self) -> None:
        self._values = list(self.lowered.slots.reset_values)
        for storage, depth in zip(self._mems, self.lowered.mem_depths):
            storage[:] = [0] * depth
        self.cycle = 0
        self._pending = [True] * self._num_assigns
        self._dirty = list(range(self._num_assigns))

    def set(self, name: str, value: int) -> None:
        if name not in self.flat.inputs:
            raise SimulationError(f"'{name}' is not a top-level input")
        self._write_external(self._slot_of[name],
                             value & self._input_masks[name])

    def get(self, name: str) -> int:
        slot = self._slot_of.get(name)
        if slot is None or name not in self._declared:
            raise SimulationError(f"unknown signal '{name}'")
        return self._values[slot]

    def memory(self, name: str) -> List[int]:
        return self._mems[self.lowered.mem_of[name]]

    def find_memories(self, substring: str) -> List[str]:
        return sorted(name for name in self.lowered.mem_of if substring in name)

    def snapshot(self) -> Dict[str, int]:
        """Current value of every declared signal (for differential checks)."""
        return {name: self._values[self._slot_of[name]]
                for name in self._declared}

    # -- dirty tracking ----------------------------------------------------------
    def _mark_assign(self, index: int) -> None:
        if not self._pending[index]:
            self._pending[index] = True
            self._dirty.append(index)

    def _write_external(self, slot: int, value: int) -> None:
        """A write from outside the combinational core: ``set``, a register
        commit or an external model.  Marks dirty the slot's marks from
        lowering: its readers and, if the slot is also assign-driven, its
        driver, so the next ``eval_comb`` restores continuous-assignment
        semantics (as the interpreter's full re-evaluation would)."""
        if self._values[slot] == value:
            return
        self._values[slot] = value
        for index in self._slot_marks[slot]:
            self._mark_assign(index)

    # -- evaluation --------------------------------------------------------------
    def eval_comb(self) -> None:
        """Propagate continuous assignments; only dirty cones re-evaluate."""
        dirty = self._dirty
        if not dirty:
            return
        self.stats["comb_calls"] += 1
        values = self._values
        mems = self._mems
        pending = self._pending
        if len(dirty) >= self._num_assigns * FULL_EVAL_FRACTION:
            # Full pass in topological order, no scheduling overhead.
            targets = self._assign_targets
            for index, step in enumerate(self._step_fns):
                values[targets[index]] = step(values, mems)
            for index in dirty:
                pending[index] = False
            self.stats["full_evals"] += 1
            self.stats["full_assign_evals"] += self._num_assigns
            self._dirty = []
            return
        step_fns = self._step_fns
        targets = self._assign_targets
        fanout = self._slot_fanout
        evals = 0
        heapq.heapify(dirty)
        while dirty:
            index = heapq.heappop(dirty)
            if not pending[index]:
                continue
            pending[index] = False
            evals += 1
            value = step_fns[index](values, mems)
            target = targets[index]
            if values[target] != value:
                values[target] = value
                for reader in fanout[target]:
                    if not pending[reader]:
                        pending[reader] = True
                        heapq.heappush(dirty, reader)
        self.stats["event_assign_evals"] += evals
        self._dirty = []

    def clock_edge(self) -> None:
        """Apply every clocked statement (two-phase, non-blocking semantics)."""
        reg_updates, mem_updates = self._clock_fn(self._values, self._mems)

        # Black-box behavioural models clock with their *current* inputs.
        external_updates: List = []
        for external, masks in zip(self.flat.externals,
                                   self._external_port_masks):
            inputs = {}
            for port, flat_name in external.input_ports.items():
                slot = self._slot_of.get(flat_name)
                inputs[port] = self._values[slot] if slot is not None else 0
            outputs = external.model.clock(inputs)
            for port, flat_name in external.output_ports.items():
                external_updates.append(
                    (self._slot_of[flat_name], outputs.get(port, 0) & masks[port])
                )

        profiler = self.profiler
        if profiler is None:
            for slot, value in reg_updates.items():
                self._write_external(slot, value)
            for mem_index, address, data in mem_updates:
                storage = self._mems[mem_index]
                if 0 <= address < len(storage):
                    masked = data & self._mem_masks[mem_index]
                    if storage[address] != masked:
                        storage[address] = masked
                        for reader in self._mem_fanout[mem_index]:
                            self._mark_assign(reader)
            for slot, value in external_updates:
                self._write_external(slot, value)
        else:
            # Profiled path: same architectural events as the interpreter —
            # value changes per update, committed in-bounds memory writes
            # (counted even when the stored word is unchanged, matching the
            # interpreter's unconditional store).
            names = self.lowered.slots.names
            mem_names = self.lowered.mem_names
            profiler.begin_edge()
            for slot, value in reg_updates.items():
                if self._values[slot] != value:
                    profiler.on_reg(names[slot])
                self._write_external(slot, value)
            for mem_index, address, data in mem_updates:
                storage = self._mems[mem_index]
                if 0 <= address < len(storage):
                    profiler.on_mem_write(mem_names[mem_index], address)
                    masked = data & self._mem_masks[mem_index]
                    if storage[address] != masked:
                        storage[address] = masked
                        for reader in self._mem_fanout[mem_index]:
                            self._mark_assign(reader)
            for slot, value in external_updates:
                if self._values[slot] != value:
                    profiler.on_reg(names[slot])
                self._write_external(slot, value)
            profiler.end_edge()
        self.cycle += 1

    def step(self, cycles: int = 1) -> None:
        """Advance the clock ``cycles`` times (post-edge state on return)."""
        for _ in range(cycles):
            self.eval_comb()
            self.clock_edge()
        self.eval_comb()


__all__ = ["CompiledSimulator", "FULL_EVAL_FRACTION"]
