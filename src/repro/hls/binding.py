"""Resource binding for the baseline HLS compiler.

After scheduling, binding decides which physical functional unit executes
each operation and which registers hold values that cross clock-cycle
boundaries.  Sharing a functional unit across operations scheduled in
different cycles saves area but adds input multiplexers; values alive across
stage boundaries of a pipelined loop need one register copy per stage — the
main reason automatically scheduled designs use more flip-flops than HIR
designs with hand-placed delays (Tables 4 and 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.hls.scheduling import DFGNode, LoopSchedule

#: Operation kinds that occupy a functional unit worth sharing.
SHARED_FU_KINDS = ("mul", "add", "sub", "cmp")


@dataclass
class FunctionalUnit:
    """One allocated functional unit and the operations bound to it."""

    kind: str
    index: int
    operations: List[int] = field(default_factory=list)

    @property
    def mux_inputs(self) -> int:
        """Number of distinct sources multiplexed onto this unit's inputs."""
        return max(0, len(self.operations) - 1)


@dataclass
class RegisterAllocation:
    """A value that must be registered between pipeline stages / states."""

    value: str
    width: int
    lifetime: int      # number of cycle boundaries crossed (register copies)


@dataclass
class BindingResult:
    functional_units: List[FunctionalUnit] = field(default_factory=list)
    registers: List[RegisterAllocation] = field(default_factory=list)

    def units_of_kind(self, kind: str) -> List[FunctionalUnit]:
        return [fu for fu in self.functional_units if fu.kind == kind]

    @property
    def total_register_bits(self) -> int:
        return sum(r.width * max(1, r.lifetime) for r in self.registers)


class Binder:
    """Binds one scheduled loop (or straight-line region)."""

    def __init__(self, schedule: LoopSchedule) -> None:
        self.schedule = schedule
        self.graph = schedule.graph

    def bind(self) -> BindingResult:
        result = BindingResult()
        result.functional_units = self._bind_functional_units()
        result.registers = self._bind_registers()
        return result

    # -- functional units ------------------------------------------------------------
    def _bind_functional_units(self) -> List[FunctionalUnit]:
        """Greedy left-edge sharing: ops in different (modulo) slots share a unit."""
        units: List[FunctionalUnit] = []
        ii = self.schedule.initiation_interval
        by_kind: Dict[str, List[DFGNode]] = {}
        for node in self.graph.nodes:
            if node.kind in SHARED_FU_KINDS:
                by_kind.setdefault(node.kind, []).append(node)
        for kind, nodes in by_kind.items():
            kind_units: List[Tuple[FunctionalUnit, set]] = []
            for node in sorted(nodes, key=lambda n: self.schedule.start_cycle[n.index]):
                slot = self.schedule.start_cycle[node.index] % max(ii, 1)
                occupied_slots = set(
                    range(slot, slot + max(node.latency, 1))
                )
                placed = False
                for unit, busy in kind_units:
                    if not (busy & occupied_slots):
                        unit.operations.append(node.index)
                        busy |= occupied_slots
                        placed = True
                        break
                if not placed:
                    unit = FunctionalUnit(kind, len(kind_units))
                    unit.operations.append(node.index)
                    kind_units.append((unit, set(occupied_slots)))
            units.extend(unit for unit, _ in kind_units)
        return units

    # -- registers -----------------------------------------------------------------------
    def _bind_registers(self) -> List[RegisterAllocation]:
        """One register copy per cycle boundary a value stays live across."""
        registers: List[RegisterAllocation] = []
        for node in self.graph.nodes:
            if node.result is None:
                continue
            ready = self.schedule.start_cycle[node.index] + node.latency
            last_use = ready
            loop_carried = False
            for succ, distance in self.graph.successors(node.index):
                if distance == 0:
                    last_use = max(last_use, self.schedule.start_cycle[succ])
                else:
                    loop_carried = True
            lifetime = last_use - ready
            if node.latency > 0:
                # Pipelined units register their own output once.
                lifetime = max(lifetime, 1)
            if loop_carried:
                # A value consumed by the next iteration lives in a register
                # across the initiation interval (e.g. an accumulator).
                lifetime = max(lifetime, 1)
            if lifetime > 0:
                registers.append(RegisterAllocation(node.result, node.width, lifetime))
        return registers


def bind_loop(schedule: LoopSchedule) -> BindingResult:
    """Convenience wrapper around :class:`Binder`."""
    return Binder(schedule).bind()
