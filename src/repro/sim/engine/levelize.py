"""Levelize a flattened netlist and lower it into slot-indexed form.

Every engine evaluates the continuous assignments in dependence order
(:func:`order_assigns`).  The interpreter keeps simulation state in
name-keyed dictionaries; the compiled engines instead assign every signal a
dense integer *slot* and every memory a dense *memory index*, so generated
step functions can use plain list indexing.  :func:`lower_design` performs
that lowering once per elaboration, in one walk of each ordered
assignment's expression:

* allocate slots for every declared wire/register **and** every name the
  design merely references (undriven references read as 0, exactly like the
  interpreter's ``signals.get(name, 0)``),
* precompute the reset value and masking width of each slot,
* record, per slot and per memory, the ordered assignments that read it
  (the fanout the event-driven scheduler re-evaluates), and per slot its
  *marks*: that fanout followed by the slot's driver, everything a write
  from outside the combinational core must mark dirty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.ir.errors import SimulationError
from repro.verilog.ast import Assign


def order_assigns(assigns: Sequence[Assign]) -> List[Assign]:
    """Topologically order continuous assignments by data dependence.

    Raises :class:`SimulationError` on multiply-driven signals and on
    combinational loops (with the offending cycle in the message).
    """
    producers: Dict[str, Assign] = {}
    for assign in assigns:
        if assign.target in producers:
            raise SimulationError(
                f"signal '{assign.target}' has multiple continuous drivers"
            )
        producers[assign.target] = assign
    ordered: List[Assign] = []
    state: Dict[str, int] = {}  # 0 unseen, 1 visiting, 2 done

    def visit(target: str, chain: List[str]) -> None:
        if state.get(target) == 2 or target not in producers:
            return
        if state.get(target) == 1:
            cycle = " -> ".join(chain + [target])
            raise SimulationError(f"combinational loop: {cycle}")
        state[target] = 1
        for dep in producers[target].expr.refs():
            visit(dep, chain + [target])
        state[target] = 2
        ordered.append(producers[target])

    for target in producers:
        visit(target, [])
    return ordered


def _mask_of(width: int) -> int:
    return (1 << width) - 1


@dataclass
class SlotTable:
    """Dense signal numbering plus per-slot reset/masking metadata."""

    names: List[str] = field(default_factory=list)
    slot_of: Dict[str, int] = field(default_factory=dict)
    reset_values: List[int] = field(default_factory=list)

    def slot(self, name: str) -> int:
        """Slot of ``name``, allocating a zero-initialised one if unseen."""
        index = self.slot_of.get(name)
        if index is None:
            index = len(self.names)
            self.slot_of[name] = index
            self.names.append(name)
            self.reset_values.append(0)
        return index


@dataclass
class LoweredDesign:
    """Everything the compiled engines need, in slot-indexed form."""

    flat: object  # the _FlatDesign this was lowered from
    slots: SlotTable = field(default_factory=SlotTable)
    #: Continuous assignments in dependence order (safe to evaluate front
    #: to back).
    ordered: List[Assign] = field(default_factory=list)
    #: Per ordered assignment: destination slot and bake-in mask.
    assign_targets: List[int] = field(default_factory=list)
    assign_masks: List[int] = field(default_factory=list)
    #: slot -> indices of ordered assignments whose expression reads it.
    slot_fanout: List[List[int]] = field(default_factory=list)
    #: slot -> its fanout, then the index of the ordered assignment driving
    #: it (if any).
    slot_marks: List[Tuple[int, ...]] = field(default_factory=list)
    #: Memory numbering and metadata.
    mem_names: List[str] = field(default_factory=list)
    mem_of: Dict[str, int] = field(default_factory=dict)
    mem_widths: List[int] = field(default_factory=list)
    mem_depths: List[int] = field(default_factory=list)
    #: memory index -> indices of assignments reading it through MemIndex.
    mem_fanout: List[List[int]] = field(default_factory=list)

    @property
    def num_assigns(self) -> int:
        return len(self.ordered)

    def assign_mask_for(self, target: str) -> int:
        """The interpreter's continuous-assignment mask: wire width, else
        register width, else 32 bits."""
        width = self.flat.wires.get(target)
        if width is None and target in self.flat.regs:
            width = self.flat.regs[target][0]
        return _mask_of(width or 32)

    def reg_mask_for(self, target: str) -> int:
        """The interpreter's clocked-assignment mask (declared reg width,
        32 bits for undeclared targets)."""
        return _mask_of(self.flat.regs.get(target, (32, 0))[0])


def lower_design(flat) -> LoweredDesign:
    """Lower an elaborated ``_FlatDesign`` into slot-indexed form."""
    lowered = LoweredDesign(flat=flat, ordered=order_assigns(flat.assigns))
    slots = lowered.slots
    mem_of = lowered.mem_of

    # Declared state first (register inits override wire zeros, like reset()).
    for name in flat.wires:
        slots.slot(name)
    for name, (width, init) in flat.regs.items():
        index = slots.slot(name)
        slots.reset_values[index] = init & _mask_of(width)

    # Memories live in their own namespace, mirroring Simulator.memories.
    for name, (width, depth) in flat.memories.items():
        mem_of[name] = len(lowered.mem_names)
        lowered.mem_names.append(name)
        lowered.mem_widths.append(width)
        lowered.mem_depths.append(depth)
        lowered.mem_fanout.append([])

    # Allocate a slot for every name the design references, declared or
    # not, recording who reads each slot and memory on the way.
    readers: Dict[int, List[int]] = {}
    for index, assign in enumerate(lowered.ordered):
        lowered.assign_targets.append(slots.slot(assign.target))
        lowered.assign_masks.append(lowered.assign_mask_for(assign.target))
        for name in assign.expr.refs():
            memory = mem_of.get(name)
            if memory is None:
                readers.setdefault(slots.slot(name), []).append(index)
            else:
                lowered.mem_fanout[memory].append(index)
    for stmt in flat.clocked:
        for name in (*stmt.reads(), *stmt.writes()):
            if name not in mem_of:
                slots.slot(name)

    lowered.slot_fanout = [readers.get(slot, [])
                           for slot in range(len(slots.names))]
    lowered.slot_marks = [tuple(fanout) for fanout in lowered.slot_fanout]
    for index, target in enumerate(lowered.assign_targets):
        lowered.slot_marks[target] += (index,)
    return lowered


__all__ = ["LoweredDesign", "SlotTable", "lower_design", "order_assigns"]
