"""Differential testing: run the interpreter and the compiled engine in
lockstep and compare every signal and memory word after every phase.

:class:`DifferentialSimulator` exposes the standard simulator surface
(``set``/``get``/``eval_comb``/``clock_edge``/``step``/``memory``), so
``run_design_impl(..., engine="differential")`` drives *both* engines through
the full testbench protocol — interface-memory sampling, drain cycles and
all — and raises :class:`DivergenceError` at the first cycle where the compiled
engine's trace departs from the interpreted reference.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.ir.errors import SimulationError
from repro.sim.engine.compiled import CompiledSimulator
from repro.sim.verilog_sim import ExternalModel, Simulator
from repro.verilog.ast import Design

#: How many mismatching signals/words to list in a divergence report.
_REPORT_LIMIT = 8


class DivergenceError(SimulationError):
    """Compiled and interpreted traces disagree."""


class DifferentialSimulator:
    """Drives an interpreted reference and a compiled engine in lockstep."""

    def __init__(self, design: Design,
                 external_models: Optional[Dict[str, Callable[[], ExternalModel]]] = None):
        # Each engine gets its own behavioural-model instances (the factories
        # are called once per elaboration), so stateful models stay in sync.
        self.reference = Simulator(design, external_models=external_models)
        self.compiled = CompiledSimulator(design,
                                          external_models=external_models)
        self.flat = self.reference.flat
        self._check("elaboration")

    # -- comparison --------------------------------------------------------------
    def _check(self, phase: str) -> None:
        mismatches: List[str] = []
        compiled_signals = self.compiled.snapshot()
        for name, expected in self.reference.signals.items():
            actual = compiled_signals.get(name)
            if actual != expected:
                mismatches.append(f"signal {name}: interpreted={expected} "
                                  f"compiled={actual}")
        for name, expected_words in self.reference.memories.items():
            actual_words = self.compiled.memory(name)
            if list(actual_words) != list(expected_words):
                diffs = [index for index, (a, b)
                         in enumerate(zip(actual_words, expected_words))
                         if a != b]
                mismatches.append(
                    f"memory {name}: {len(diffs)} word(s) differ at "
                    f"addresses {diffs[:_REPORT_LIMIT]}"
                )
        if mismatches:
            shown = "; ".join(mismatches[:_REPORT_LIMIT])
            raise DivergenceError(
                f"engines diverged after {phase} at cycle "
                f"{self.reference.cycle}: {shown}"
                + ("" if len(mismatches) <= _REPORT_LIMIT else
                   f" (+{len(mismatches) - _REPORT_LIMIT} more)")
            )

    # -- simulator surface -------------------------------------------------------
    @property
    def cycle(self) -> int:
        return self.reference.cycle

    def reset(self) -> None:
        self.reference.reset()
        self.compiled.reset()
        self._check("reset")

    def set(self, name: str, value: int) -> None:
        self.reference.set(name, value)
        self.compiled.set(name, value)

    def get(self, name: str) -> int:
        expected = self.reference.get(name)
        actual = self.compiled.get(name)
        if actual != expected:
            raise DivergenceError(
                f"get('{name}') at cycle {self.reference.cycle}: "
                f"interpreted={expected} compiled={actual}"
            )
        return expected

    def memory(self, name: str) -> List[int]:
        return self.reference.memory(name)

    def find_memories(self, substring: str) -> List[str]:
        return self.reference.find_memories(substring)

    def eval_comb(self) -> None:
        self.reference.eval_comb()
        self.compiled.eval_comb()
        self._check("eval_comb")

    def clock_edge(self) -> None:
        self.reference.clock_edge()
        self.compiled.clock_edge()
        self._check("clock_edge")

    def step(self, cycles: int = 1) -> None:
        for _ in range(cycles):
            self.eval_comb()
            self.clock_edge()
        self.eval_comb()


__all__ = ["DifferentialSimulator", "DivergenceError"]
