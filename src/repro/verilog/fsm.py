"""Controller synthesis: time-variable pulses and loop state machines.

The schedule of an HIR design is realised in hardware as one-bit *pulse*
signals: the pulse for time instant ``%tv + k`` is high exactly in the clock
cycle corresponding to that instant.  Operations scheduled at that instant use
the pulse as their enable.  This module provides

* :class:`PulseGenerator` — given a base pulse for every time variable, it
  builds (and caches) the delayed pulses ``%tv + k`` as one-bit shift
  registers, which is precisely the "schedules map to state machines" row of
  Table 3, and
* :class:`LoopController` — the state machine generated for every ``hir.for``:
  an induction-variable register, an iteration pulse, a repeat/done decision
  driven by the loop's ``hir.yield``, exactly the "for loops map to state
  machines" row of Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.ir.values import Value
from repro.verilog.ast import (
    BinOp,
    Expr,
    If,
    Module,
    NonBlockingAssign,
    Ref,
    Ternary,
    UnOp,
)
from repro.verilog.naming import SignalNamer


class PulseGenerator:
    """Builds delayed one-bit pulses for (time variable, offset) pairs."""

    def __init__(self, module: Module, namer: SignalNamer) -> None:
        self.module = module
        self.namer = namer
        #: Base pulse signal name per time-variable value.
        self._roots: Dict[int, str] = {}
        #: Cache of generated delayed pulses: (id(root), offset) -> signal name.
        self._cache: Dict[Tuple[int, int], str] = {}
        self._clocked = module.add_always()

    def register_root(self, time_var: Value, signal: str) -> None:
        """Associate a time variable with the signal carrying its pulse."""
        self._roots[id(time_var)] = signal
        self._cache[(id(time_var), 0)] = signal

    def pulse(self, time_var: Value, offset: int) -> str:
        """Signal name of the pulse for ``time_var + offset`` (built on demand)."""
        if offset < 0:
            raise ValueError(f"negative schedule offset {offset}")
        key = (id(time_var), offset)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if id(time_var) not in self._roots:
            raise KeyError(
                f"time variable %{time_var.display_name()} has no base pulse"
            )
        # Build the chain incrementally so intermediate offsets are shared.
        previous = self.pulse(time_var, offset - 1)
        base = self._roots[id(time_var)]
        name = self.namer.fresh(f"{base}_d{offset}")
        self.module.add_reg(name, 1)
        self._clocked.body.append(NonBlockingAssign(name, Ref(previous)))
        self._cache[key] = name
        return name

    def pulse_expr(self, time_var: Value, offset: int) -> Expr:
        return Ref(self.pulse(time_var, offset))


@dataclass
class LoopSignals:
    """Signals exposed by a generated loop controller."""

    done_pulse: str      # the loop op's time result
    induction_var: str   # visible induction-variable value for the current iteration
    repeat_pulse: str = ""
    last_reg: str = ""


class LoopController:
    """Generates the state machine implementing one ``hir.for``."""

    def __init__(self, module: Module, namer: SignalNamer) -> None:
        self.module = module
        self.namer = namer

    def build(
        self,
        prefix: str,
        start_pulse: str,
        lower_bound: Expr,
        upper_bound: Expr,
        step: Expr,
        iv_width: int,
        iter_pulse: str,
        done_pulse: str,
    ) -> LoopSignals:
        """Emit the loop controller datapath and return its signals.

        ``iter_pulse`` and ``done_pulse`` are wires already declared by the
        caller (they are pre-registered as time-variable pulse roots so that
        operations textually preceding the loop can still reference them).
        The yield-driven repeat/done logic is finished later by
        :meth:`connect_yield` once the loop body (which may contain the inner
        loop whose completion the yield waits on) has been lowered.
        """
        module = self.module
        first = self.namer.fresh(f"{prefix}_first")
        repeat = self.namer.fresh(f"{prefix}_repeat")
        done = done_pulse
        iv = self.namer.fresh(f"{prefix}_iv")
        iv_reg = self.namer.fresh(f"{prefix}_iv_reg")
        last_reg = self.namer.fresh(f"{prefix}_last")

        module.add_comment(f"state machine for loop '{prefix}'")
        module.add_wire(first, 1)
        module.add_wire(repeat, 1)
        module.add_wire(iv, iv_width)
        module.add_reg(iv_reg, iv_width)
        module.add_reg(last_reg, 1)

        module.add_assign(first, Ref(start_pulse))
        module.add_assign(iter_pulse, BinOp("|", Ref(first), Ref(repeat)))
        # The induction variable visible to the loop body.  On the first
        # iteration it is the lower bound; on a repeat pulse it advances by
        # ``step``; between iteration starts it holds the latched value, so it
        # stays stable for the whole iteration (including nested loops).
        module.add_assign(
            iv,
            Ternary(
                Ref(first),
                lower_bound,
                Ternary(Ref(repeat), BinOp("+", Ref(iv_reg), step), Ref(iv_reg)),
            ),
        )

        clocked = module.add_always()
        clocked.body.append(
            If(Ref(iter_pulse), [
                NonBlockingAssign(iv_reg, Ref(iv)),
                NonBlockingAssign(
                    last_reg,
                    BinOp(">=", BinOp("+", Ref(iv), step), upper_bound),
                ),
            ])
        )
        return LoopSignals(done, iv, repeat_pulse=repeat, last_reg=last_reg)

    def connect_yield(self, signals: LoopSignals, yield_pulse: str) -> None:
        """Connect the loop's yield pulse to the repeat/done decision."""
        self.module.add_assign(
            signals.repeat_pulse,
            BinOp("&", Ref(yield_pulse), UnOp("!", Ref(signals.last_reg))),
        )
        self.module.add_assign(
            signals.done_pulse,
            BinOp("&", Ref(yield_pulse), Ref(signals.last_reg)),
        )
