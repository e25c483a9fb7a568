"""The benchmark's workloads: the six Table 5 kernels, first touch of each.

Both workloads are a closed loop: one client, one op at a time.  An op is
split into an untimed ``prepare``, the timed ``op`` and an untimed
``verify``; ``verify`` raises :class:`CheckFailed` when an output, the
Verilog text, the resource report, the cycle count or the executed engine
differs from what set-up pinned.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.flow
import repro.kernels
from repro.evaluation.table5 import DEFAULT_PARAMS
from repro.flow import Flow, FlowConfig
from repro.resilience import resilience_counters
from repro.sim.engine.cache import clear_compile_cache


class CheckFailed(Exception):
    """An op produced a wrong or unexpected result."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def corrupted(array) -> np.ndarray:
    """A copy of ``array`` with its last element changed (self-test only)."""
    damaged = np.array(array, copy=True)
    damaged.reshape(-1)[-1] += 1
    return damaged


@dataclass(frozen=True)
class Signature:
    """What must repeat exactly for one design: QoR and emitted Verilog."""

    cycles: int
    lut: int
    ff: int
    dsp: int
    bram: int
    verilog_sha256: str


@dataclass
class _Touch:
    """One kernel of an op, kept for verification."""

    name: str
    seed: int
    flow: Flow
    text: str
    report: Any
    validation: Any

    def signature(self) -> Signature:
        values = self.report.as_dict()
        return Signature(self.validation.value.cycles, values["LUT"],
                         values["FF"], values["DSP"], values["BRAM"],
                         hashlib.sha256(self.text.encode()).hexdigest())


class FirstTouch:
    """Build → optimize → Verilog → resources → validate, per kernel.

    ``warm_store=False`` is ``cold``: every op publishes to an empty store.
    ``warm_store=True`` is ``warm-store``: set-up fills one store with a cold
    pass, and every op reads through it.
    """

    def __init__(self, seed: int, workdir: str, warm_store: bool) -> None:
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.warm_store = warm_store
        self.store_dir: Optional[str] = None
        #: Kernel name -> pinned signature, set by :meth:`setup`.
        self.expected: Dict[str, Signature] = {}
        #: Self-test hook: damage every output array the checks read.
        self.corrupt = False

    def _fresh_store(self) -> str:
        return tempfile.mkdtemp(prefix="store-", dir=self.workdir)

    def _touch(self, store_dir: str) -> List[_Touch]:
        touches = []
        for name, params in DEFAULT_PARAMS.items():
            seed = self.rng.randrange(2 ** 31)
            clear_compile_cache()
            flow = Flow(repro.kernels.build_kernel(name, **params),
                        config=FlowConfig(engine="vector", store_dir=store_dir))
            flow.optimized()
            text = flow.verilog().value.text
            report = flow.resources().value
            validation = flow.validate(seed)
            touches.append(_Touch(name, seed, flow, text, report, validation))
        return touches

    def setup(self) -> None:
        """Fill the store (warm-store) and run one checked warm-up op."""
        self.close()
        self.expected = {}
        if self.warm_store:
            self.store_dir = self._fresh_store()
            fill = self._touch(self.store_dir)
            self._check(fill)
            self.expected = {touch.name: touch.signature() for touch in fill}
        prepared = self.prepare()
        try:
            self.verify(prepared, self.op(prepared))
        finally:
            self.release(prepared)

    def prepare(self) -> Tuple[str, Dict[str, int]]:
        store_dir = self.store_dir if self.warm_store else self._fresh_store()
        return store_dir, resilience_counters()

    def op(self, prepared) -> List[_Touch]:
        return self._touch(prepared[0])

    def _produced(self, read: Callable[[str], Any]) -> Callable[[str], Any]:
        if not self.corrupt:
            return read
        return lambda name: corrupted(read(name))

    def _check(self, touches: List[_Touch]) -> None:
        for touch in touches:
            validation = touch.validation.value
            provenance = dict(touch.validation.provenance)
            _require(validation.ok, f"{touch.name}: validate reported a mismatch")
            _require(validation.engine == "vector" and "fallback" not in provenance
                     and validation.run.engine == "vector",
                     f"{touch.name}: ran on {validation.engine} "
                     f"(provenance {touch.validation.provenance})")
            _require(bool(validation.run.done), f"{touch.name}: done never rose")
            flow = touch.flow
            inputs = flow.make_inputs(touch.seed)
            _require(repro.flow.outputs_match(
                flow.reference(inputs), self._produced(validation.run.memory_array),
                flow.output_warmup), f"{touch.name}: outputs differ from numpy")

    def verify(self, prepared, result: List[_Touch]) -> None:
        self._check(result)
        _require(resilience_counters() == prepared[1],
                 "resilience counters moved: a fault or fallback was taken")
        signatures = {touch.name: touch.signature() for touch in result}
        if not self.expected:
            self.expected = signatures
        for name, signature in signatures.items():
            _require(signature == self.expected[name],
                     f"{name}: {signature} differs from the pinned "
                     f"{self.expected[name]}")

    def release(self, prepared) -> None:
        if not self.warm_store:
            shutil.rmtree(prepared[0], ignore_errors=True)

    def close(self) -> None:
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None

    def qor(self) -> Dict[str, int]:
        """Simulated cycles and resources, summed over the six kernels."""
        signatures = list(self.expected.values())
        return {
            "hw_cycles": sum(s.cycles for s in signatures),
            "hw_lut": sum(s.lut for s in signatures),
            "hw_ff": sum(s.ff for s in signatures),
            "hw_dsp": sum(s.dsp for s in signatures),
            "hw_bram": sum(s.bram for s in signatures),
        }

