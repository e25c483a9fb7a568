"""Common infrastructure for the benchmark kernels.

Every kernel in :mod:`repro.kernels` provides the same artefacts so the
evaluation harness, the tests and the benchmarks can treat them uniformly:

* an HIR module (the design the HIR compiler consumes),
* a software-IR program with pragmas (the design the baseline HLS compiler
  consumes), matched in loop structure and pipelining to the HIR design, and
* a numpy reference implementation plus input generators for functional
  validation of the HIR-generated hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.ir.module import ModuleOp
from repro.hir.types import MemrefType

if TYPE_CHECKING:
    import numpy as np

    from repro.hls.swir import Program


@dataclass
class KernelArtifacts:
    """Everything the harness needs to compile, run and check one kernel."""

    name: str
    #: The HIR design.
    module: ModuleOp
    #: Symbol name of the top-level function.
    top: str
    #: Memref interfaces of the top function (argument name -> type).
    interfaces: Dict[str, MemrefType] = field(default_factory=dict)
    #: Scalar arguments of the top function (argument name -> value).
    scalar_args: Dict[str, int] = field(default_factory=dict)
    #: Builds the matching software-IR program for the baseline HLS
    #: compiler, on the first read of :attr:`hls_program` (so building a
    #: kernel does not import the HLS compiler); None: the kernel has none.
    hls_builder: Optional[Callable[[], Program]] = None
    #: Name of the HLS function to compile (defaults to the program's last).
    hls_function: Optional[str] = None
    #: Generate input tensors: seed -> {interface name: numpy array}.
    make_inputs: Optional[Callable[[int], Dict[str, np.ndarray]]] = None
    #: Reference model: inputs -> {output interface name: expected array}.
    reference: Optional[Callable[[Dict[str, np.ndarray]], Dict[str, np.ndarray]]] = None
    #: Behavioural models for external (black-box) modules, keyed by name.
    external_models: Dict[str, Callable] = field(default_factory=dict)
    #: Output name -> leading elements the hardware does not produce (e.g.
    #: a stencil's window warm-up); comparisons skip them.
    output_warmup: Dict[str, int] = field(default_factory=dict)
    #: Free-form notes (design decisions, paper correspondence).
    notes: str = ""

    @cached_property
    def hls_program(self) -> Optional[Program]:
        """The matching software-IR program for the baseline HLS compiler."""
        return None if self.hls_builder is None else self.hls_builder()

    # -- simulation conveniences ------------------------------------------------
    def check_outputs(self, run, inputs) -> bool:
        """Did a simulation run reproduce the numpy reference exactly?

        Applies :attr:`output_warmup` so kernel-specific comparison quirks
        live here rather than in every caller.
        """
        from repro.flow import outputs_match  # local: layering
        if not run.done:
            return False
        return outputs_match(self.reference(inputs), run.memory_array,
                             self.output_warmup)

    #: Lazily created Flow session backing the conveniences below.  Stage
    #: caching (with content-based invalidation) lives in the Flow, so this
    #: is just a handle — not a cache of compiled state.
    _flow: Optional[object] = field(default=None, repr=False, compare=False)

    def flow(self, config=None):
        """The :class:`repro.flow.Flow` session over these artifacts.

        The default config uses ``pipeline="none"``, preserving the historic
        behaviour of the artifact helpers (simulate exactly the module as
        built, no optimization passes); pass a
        :class:`~repro.flow.FlowConfig` for anything else.  The no-config
        Flow is cached on the artifacts; its stages re-build automatically
        if :attr:`module` is mutated (content-fingerprinted), which replaces
        the old ``_design`` attribute hack that served stale designs.
        """
        from repro.flow import Flow, FlowConfig  # local: layering
        if config is not None:
            return Flow(self, config=config)
        if self._flow is None:
            self._flow = Flow(self, config=FlowConfig(pipeline="none"))
        return self._flow

    def simulate(self, seed: int = 0, engine: Optional[str] = None,
                 drain_cycles: int = 16, max_cycles: int = 100000):
        """Compile (cached) and simulate one stimulus set.

        Returns ``(run, inputs)`` where ``run`` is the
        :class:`~repro.sim.testbench.SimulationRun` and ``inputs`` the tensors
        generated from ``seed`` (feed them to :attr:`reference`).
        """
        outcome = self.flow().simulate(seed=seed, engine=engine,
                                       drain_cycles=drain_cycles,
                                       max_cycles=max_cycles).value
        return outcome.run, outcome.inputs

    def simulate_batch(self, seeds, drain_cycles: int = 16,
                       max_cycles: int = 100000):
        """Simulate one stimulus lane per seed with the batched engine.

        Returns ``(run, inputs_per_lane)`` where ``run`` is a
        :class:`~repro.sim.engine.batch.BatchedSimulationRun`.
        """
        outcome = self.flow().simulate_batch(seeds,
                                             drain_cycles=drain_cycles,
                                             max_cycles=max_cycles).value
        return outcome.run, outcome.inputs_per_lane


def default_rng(seed: int) -> np.random.Generator:
    import numpy as np
    return np.random.default_rng(seed)
