"""One staged, cached, configurable entry point for the whole toolchain.

:class:`Flow` owns the end-to-end HIR pipeline the paper evaluates —
describe → verify → optimize → Verilog → resources → cycle-accurate
simulation — as lazy, cached, invalidation-aware stages::

    flow = Flow.from_kernel("gemm", size=8)
    flow.hir()              # the (structurally verified) HIR module
    flow.verified()         # schedule-verification report
    flow.optimized()        # module after the configured pass pipeline
    flow.verilog()          # generated Design + emitted text + stats
    flow.resources()        # LUT/FF/DSP/BRAM estimate
    flow.simulate(seed=3)   # one stimulus set on the configured engine
    flow.simulate_batch(range(16))   # N stimulus lanes, one compiled design
    flow.validate(seed=3)   # simulate + compare against the numpy reference

Every stage returns a typed :class:`Artifact` handle that remembers what it
was built from (``fingerprint`` + ``provenance``), how long it took
(``seconds``) and whether this access was served from the stage cache
(``cached``).  Stages are keyed on their provenance, which starts from a
content fingerprint of the source module, so mutating the module after a
compile transparently invalidates every downstream artifact — there is no
stale-design hazard.

With a persistent store (:attr:`FlowConfig.store_dir`), a store hit
decodes, analyzes and imports nothing until something reads it: the
``optimized`` stage parses its stored IR on the first read of the value
(:class:`Artifact`), the ``verilog`` stage lowers only when its design is
read (:class:`VerilogArtifact`), and a ``vector`` simulate takes the static
done cycle it checks its run against from the stored simulator image.

Configuration lives in one place, :class:`FlowConfig`, with a single
documented precedence (highest wins):

1. **per-call keyword** — ``flow.simulate(seed, engine="compiled")``;
2. **FlowConfig field** — ``Flow(..., config=FlowConfig(engine="compiled"))``;
3. **environment** — ``REPRO_SIM_ENGINE`` and ``REPRO_STORE_DIR``, read at
   call time (``FlowConfig.from_env()`` snapshots both);
4. **built-in default** — the ``vector`` engine
   (:data:`repro.sim.engine.DEFAULT_ENGINE`), no store.

:meth:`FlowConfig.resolve_engine` is the only code that picks an engine the
caller did not name.

The stages are built on public cores — ``generate_verilog_impl``,
``run_design_impl`` and ``run_design_batch_impl`` — and a Flow with
``pipeline="none"`` is byte- and trace-identical to calling them directly
(enforced by ``tests/flow/test_flow_golden.py``).
"""

from __future__ import annotations

import os
import sys
import time as _time
import weakref
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Generic,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.ir.errors import IRError
from repro.ir.module import ModuleOp
from repro.ir.printer import module_fingerprint
from repro.ir.verifier import verify as verify_structure
from repro.hir.ops import FuncOp
from repro.hir.types import MemrefType
from repro.obs.tracer import TRACER

if TYPE_CHECKING:
    from repro.graph.graph import DesignGraph

T = TypeVar("T")

#: Pass-pipeline choices accepted by :attr:`FlowConfig.pipeline`.
PIPELINES: Tuple[str, ...] = ("optimize", "verify", "none", "legacy")

#: Why :meth:`Flow.simulate` executed another engine than the one requested
#: (the closed set behind the ``fallback_reason`` provenance key).
FALLBACK_REASONS: Tuple[str, ...] = ("external-models", "profiling")

#: Environment variables :meth:`FlowConfig.from_env` snapshots, mapped to the
#: config field each one feeds.
ENV_VARS: Dict[str, str] = {
    "REPRO_SIM_ENGINE": "engine",
    "REPRO_STORE_DIR": "store_dir",
}


class FlowError(IRError):
    """Raised on Flow misconfiguration (unknown pipeline, missing models...)."""


# --------------------------------------------------------------------------- #
# Configuration
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class FlowConfig:
    """Every knob of the toolchain in one immutable object.

    ``None`` means "inherit": the engine and the store fall back to
    ``REPRO_SIM_ENGINE`` / ``REPRO_STORE_DIR``, read at call time.  The
    simulator compile cache's bound is not config either: it reads
    ``REPRO_SIM_CACHE_SIZE`` at call time.
    """

    #: Simulation engine ("interpreted", "compiled", "differential" or the
    #: fused whole-run "vector"; None: see :meth:`resolve_engine`).
    engine: Optional[str] = None
    #: Pass pipeline run by :meth:`Flow.optimized`: "optimize" (the paper's
    #: full auto-opt pipeline), "verify" (schedule verification only),
    #: "none" (byte-identical to calling generate_verilog_impl) or
    #: "legacy" (the seed pass implementations, kept as an oracle).
    pipeline: str = "optimize"
    #: Run the structural verifier on the source module in :meth:`Flow.hir`.
    verify_structure: bool = True
    #: Verify the IR after each pass (PassManager(verify_each=...)).
    verify_each: bool = True
    #: Persistent artifact store root (:mod:`repro.store`): ``None`` inherits
    #: ``REPRO_STORE_DIR``, ``""`` disables persistence explicitly.  When a
    #: store resolves, the optimized IR, the Verilog text, the resource
    #: report and the compiled simulator code (with the fused run's
    #: simulator image) read through to disk and publish their results, so
    #: a cold process re-running a warm design skips the pass pipeline,
    #: Verilog lowering and emission, the resource estimate and simulator
    #: codegen; a ``vector`` simulate then neither parses the stored IR
    #: nor lowers the design (the laziness rules are on :class:`Artifact`
    #: and :class:`VerilogArtifact`).
    store_dir: Optional[str] = None
    #: Observability: enable the process tracer (:data:`repro.obs.TRACER`)
    #: for the duration of every stage build and simulation of this flow.
    trace: bool = False
    #: Collect a :class:`repro.obs.simprofile.SimProfile` during
    #: simulate()/simulate_batch() (reachable as ``outcome.profile``).
    profile: bool = False

    def __post_init__(self) -> None:
        if self.pipeline not in PIPELINES:
            raise FlowError(
                f"unknown pipeline {self.pipeline!r}; choose one of "
                f"{list(PIPELINES)}"
            )
        if self.engine is not None:
            from repro.sim.engine import available_engines
            if self.engine not in available_engines():
                raise FlowError(
                    f"unknown simulation engine {self.engine!r}; choose one "
                    f"of {available_engines()}"
                )

    # -- construction -------------------------------------------------------
    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None,
                 **overrides: Any) -> "FlowConfig":
        """Snapshot the :data:`ENV_VARS` variables into an explicit config.

        Unset variables stay ``None`` (inherit), so a ``from_env()`` config
        behaves exactly like the environment it was read from — but frozen
        at snapshot time.  ``overrides`` are applied on top.
        """
        env = os.environ if env is None else env
        values: Dict[str, Any] = {field: env[variable]
                                  for variable, field in ENV_VARS.items()
                                  if variable in env}
        values.update(overrides)
        return cls(**values)

    def with_(self, **overrides: Any) -> "FlowConfig":
        """A copy with ``overrides`` applied (config objects are frozen)."""
        return replace(self, **overrides)

    # -- resolution (the documented precedence) -----------------------------
    def resolve_engine(self, override: Optional[str] = None) -> str:
        """The engine to run: per-call > config > ``REPRO_SIM_ENGINE`` (read
        now) > :data:`repro.sim.engine.DEFAULT_ENGINE`."""
        if override is not None:
            return override
        if self.engine is not None:
            return self.engine
        from repro.sim.engine import DEFAULT_ENGINE
        return os.environ.get("REPRO_SIM_ENGINE", DEFAULT_ENGINE)

    def resolve_store(self):
        """The :class:`repro.store.ArtifactStore` this config persists to.

        ``store_dir`` set → that directory; ``store_dir=""`` → ``None``
        (persistence off); ``store_dir=None`` → the ``REPRO_STORE_DIR``
        environment store, if any.
        """
        from repro.store import get_store
        if self.store_dir is not None:
            return get_store(self.store_dir) if self.store_dir.strip() else None
        from repro.store import default_store
        return default_store()


# --------------------------------------------------------------------------- #
# Artifact handles
# --------------------------------------------------------------------------- #


class _Stored:
    """A stage value the store served undecoded: decoded on first read.

    ``load`` comes from :meth:`repro.store.ArtifactStore.read_later`; it runs
    once (decoding, or rebuilding an undecodable blob) and is then dropped
    with the payload it holds.
    """

    __slots__ = ("_load", "_value")

    def __init__(self, load: Callable[[], Any]) -> None:
        self._load: Optional[Callable[[], Any]] = load
        self._value: Any = None

    def get(self) -> Any:
        if self._load is not None:
            self._value = self._load()
            self._load = None
        return self._value


class Artifact(Generic[T]):
    """A stage result that remembers its provenance and cost.

    ``fingerprint`` identifies the exact inputs (module content + config)
    the value was built from; ``provenance`` spells those inputs out and is
    the stage-cache key (a cached handle is served only while a rebuild
    would carry the same provenance); ``seconds`` is always the time spent
    *building* the value — a handle served from the stage cache keeps the
    original build time and reports the (tiny) cache lookup separately in
    ``fetch_seconds``.

    A value the store served is decoded on the first read of ``value``, so
    on a store hit the ``optimized`` stage's IR is parsed only when a caller
    reads the module.  ``repr``, :meth:`Flow.report` and a stage-cache
    re-fetch never decode it.
    """

    __slots__ = ("stage", "_value", "seconds", "fingerprint", "provenance",
                 "cached", "fetch_seconds")

    def __init__(self, stage: str, value: Any, seconds: float,
                 fingerprint: str,
                 provenance: Tuple[Tuple[str, str], ...] = (),
                 cached: bool = False,
                 fetch_seconds: Optional[float] = None) -> None:
        self.stage = stage
        #: The value, or the :class:`_Stored` blob it is decoded from.
        self._value = value
        self.seconds = seconds
        self.fingerprint = fingerprint
        self.provenance = provenance
        self.cached = cached
        #: Time this access spent fetching the handle from the stage cache;
        #: ``None`` when the value was built fresh (``cached`` is False).
        self.fetch_seconds = fetch_seconds

    @property
    def value(self) -> T:
        value = self._value
        return value.get() if isinstance(value, _Stored) else value

    def fetched(self, seconds: float) -> "Artifact[T]":
        """This artifact as served from the stage cache in ``seconds``."""
        return Artifact(self.stage, self._value, self.seconds,
                        self.fingerprint, self.provenance, True, seconds)

    def value_type(self) -> str:
        """The value's type name; a stored value still undecoded says so."""
        value = self._value
        if isinstance(value, _Stored):
            if value._load is not None:
                return "stored, not decoded"
            value = value.get()
        return type(value).__name__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.cached:
            fetched = ("" if self.fetch_seconds is None else
                       f", fetched in {self.fetch_seconds * 1e6:.0f} us")
            origin = f"cached; built in {self.seconds * 1e3:.2f} ms{fetched}"
        else:
            origin = f"built in {self.seconds * 1e3:.2f} ms"
        provenance = ", ".join(f"{k}={v[:12]}" for k, v in self.provenance)
        if provenance:
            provenance = f" {{{provenance}}}"
        return (f"<Artifact {self.stage} [{self.fingerprint[:12]}] "
                f"{self.value_type()} ({origin}){provenance}>")


class VerilogArtifact:
    """Value of :meth:`Flow.verilog`: the design, its text, codegen stats.

    ``design`` and ``statistics`` come from lowering the optimized module
    (``generate_verilog_impl``), done once, on first access; ``text`` is
    emitted from the design on first access unless the store served it.
    The laziness rule of the ``verilog`` stage: its build lowers unless the
    store served the text.  So with no store (Table 6, ``report --timing``)
    the stage's ``seconds`` time lowering but not emission, and a store
    miss lowers and emits inside the stage.  Only a warm store defers
    lowering, possibly forever: a ``vector`` simulate then runs from the
    stored simulator image (:mod:`repro.sim.engine.vector`) and never reads
    ``design``, nor ``module``, which the store serves undecoded (see
    :class:`Artifact`).
    """

    def __init__(self, optimized: Artifact, top: str) -> None:
        #: The ``optimized`` stage's artifact.  Nothing it holds references
        #: the Flow, so a dead session is freed without waiting for the
        #: cycle collector.
        self._optimized = optimized
        self._result: Any = None
        self._text: Optional[str] = None
        self.top = top

    @property
    def module(self) -> ModuleOp:
        """The optimized module the design is lowered from."""
        return self._optimized.value

    def _lowered(self) -> Any:
        if self._result is None:
            from repro.verilog import codegen
            self._result = codegen.generate_verilog_impl(self.module,
                                                         top=self.top)
        return self._result

    @property
    def design(self) -> Any:
        return self._lowered().design

    @property
    def statistics(self) -> Mapping[str, int]:
        return self._lowered().statistics

    @property
    def text(self) -> str:
        if self._text is None:
            from repro.verilog.emitter import emit_design
            self._text = emit_design(self.design)
        return self._text

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "lowered" if self._result is not None else "not lowered"
        return f"<VerilogArtifact top={self.top!r} ({state})>"


@dataclass(frozen=True)
class SimulationOutcome:
    """Value of :meth:`Flow.simulate`."""

    run: Any                      # repro.sim.testbench.SimulationRun
    inputs: Mapping[str, Any]
    engine: str
    seed: Optional[int] = None

    def memory_array(self, name: str):
        return self.run.memory_array(name)

    @property
    def profile(self):
        """The run's :class:`~repro.obs.simprofile.SimProfile` (None unless
        the flow simulated with ``FlowConfig(profile=True)``)."""
        return self.run.profile


@dataclass(frozen=True)
class BatchOutcome:
    """Value of :meth:`Flow.simulate_batch`."""

    run: Any                      # repro.sim.engine.batch.BatchedSimulationRun
    inputs_per_lane: Sequence[Mapping[str, Any]]
    seeds: Optional[Sequence[int]] = None

    def memory_array(self, name: str, lane: Optional[int] = None):
        return self.run.memory_array(name, lane)

    @property
    def profiles(self):
        """Per-lane :class:`~repro.obs.simprofile.SimProfile` list (None
        unless the flow simulated with ``FlowConfig(profile=True)``)."""
        return self.run.profiles


@dataclass(frozen=True)
class ValidationOutcome:
    """Value of :meth:`Flow.validate`."""

    name: str
    engine: str
    cycles: int
    ok: bool
    run: Any = None


# --------------------------------------------------------------------------- #
# The Flow session
# --------------------------------------------------------------------------- #

#: Live Flow sessions, so the ``flow.stages`` cache report can aggregate the
#: per-session stage caches (which are unbounded — one artifact per stage).
_LIVE_FLOWS: "weakref.WeakSet" = weakref.WeakSet()

#: Process-lifetime stage-cache hit/miss counters across every Flow session.
_STAGE_STATS = {"hits": 0, "misses": 0}


def _flow_stage_stats():
    from repro.obs.cachestats import CacheStats
    size = sum(len(flow._stages) for flow in _LIVE_FLOWS)
    return CacheStats(name="flow.stages", capacity=None, size=size,
                      hits=_STAGE_STATS["hits"],
                      misses=_STAGE_STATS["misses"], evictions=0)


def _register_flow_stats() -> None:
    from repro.obs.cachestats import register_cache
    register_cache("flow.stages", _flow_stage_stats)


_register_flow_stats()


def outputs_match(expected: Mapping[str, Any],
                  produced: Callable[[str], Any],
                  output_warmup: Optional[Mapping[str, int]] = None) -> bool:
    """Compare reference outputs against simulated memories, warmup-aware.

    The single comparison the whole stack shares — :meth:`Flow.validate`,
    ``KernelArtifacts.check_outputs`` and the CLI sweep all delegate here.
    ``expected`` maps output names to reference tensors; ``produced(name)``
    returns the simulated memory contents; ``output_warmup`` gives leading
    elements the hardware does not produce (skipped on both sides).
    """
    import numpy as np
    warmup = output_warmup or {}
    for name, reference in expected.items():
        produced_array = np.asarray(produced(name))
        reference_array = np.asarray(reference)
        skip = warmup.get(name, 0)
        if skip:
            produced_array = produced_array[skip:]
            reference_array = reference_array[skip:]
        if not np.array_equal(produced_array, reference_array):
            return False
    return True


def _pass_manager(config: FlowConfig):
    """The pass manager of ``config``'s (verifying or optimizing) pipeline."""
    from repro.passes.pipeline import (
        optimization_pipeline,
        verification_pipeline,
    )
    if config.pipeline == "verify":
        return verification_pipeline(verify_each=config.verify_each)
    return optimization_pipeline(verify_each=config.verify_each,
                                 legacy=(config.pipeline == "legacy"))


def _parse_stored_ir(payload: bytes) -> ModuleOp:
    """Decode an ``ir`` blob (only a read of the module gets here)."""
    from repro.ir.parser import parse_module
    return parse_module(payload.decode(), filename="<store:ir>")


class Flow:
    """A session over one design: staged, cached, invalidation-aware.

    ``source`` may be a :class:`~repro.ir.module.ModuleOp`, a
    :class:`~repro.hir.build.DesignBuilder`, or a
    :class:`~repro.kernels.base.KernelArtifacts` (which contributes its
    interfaces, stimulus generator, reference model and external models).
    Explicit keyword arguments override whatever the source provides.
    """

    def __init__(
        self,
        source: Any,
        top: Optional[str] = None,
        *,
        config: Optional[FlowConfig] = None,
        name: Optional[str] = None,
        interfaces: Optional[Mapping[str, MemrefType]] = None,
        scalar_args: Optional[Mapping[str, int]] = None,
        make_inputs: Optional[Callable[[int], Dict[str, Any]]] = None,
        reference: Optional[Callable[[Mapping[str, Any]], Mapping[str, Any]]] = None,
        external_models: Optional[Mapping[str, Callable]] = None,
        output_warmup: Optional[Mapping[str, int]] = None,
    ) -> None:
        #: stage name -> artifact (its provenance is the cache key)
        self._stages: Dict[str, Artifact] = {}
        #: The last optimize run's per-pass timing report, in a list the
        #: ``optimized`` build fills without referencing the Flow.
        self._pass_report: List[str] = []
        # Config must exist before compose() runs (stages consult it for
        # tracing); the DesignGraph branch below builds a stage in __init__.
        self.config = config or FlowConfig()
        _LIVE_FLOWS.add(self)
        #: The DesignGraph behind a composed flow (None for plain sources).
        self.graph: Optional[DesignGraph] = None
        # A DesignGraph source means repro.graph is loaded already, so the
        # check imports nothing.
        graph = sys.modules.get("repro.graph.graph")
        if graph is not None and isinstance(source, graph.DesignGraph):
            self.graph = source
            name = name or source.name
            # Build through the compose stage so the first composition is
            # cached under the graph fingerprint like any later rebuild.
            source = self.compose().value
        module = source.module if hasattr(source, "module") else source
        if not isinstance(module, ModuleOp):
            raise FlowError(
                f"Flow needs a ModuleOp, a DesignBuilder, KernelArtifacts or "
                f"a DesignGraph; got {type(source).__name__}"
            )
        #: The object this Flow was constructed from (e.g. KernelArtifacts),
        #: for callers that need source-side extras such as ``hls_program``.
        self.source = source
        self.module = module
        pick = lambda override, attr, default: (  # noqa: E731
            override if override is not None
            else getattr(source, attr, None) or default)
        self.top: str = top or getattr(source, "top", None) or self._default_top()
        # A bare ModuleOp's .name is the op name ("builtin.module"), not a
        # design name — only non-module sources contribute one.
        source_name = None if source is module else getattr(source, "name", None)
        self.name: str = name or source_name or self.top
        self.interfaces: Dict[str, MemrefType] = dict(
            pick(interfaces, "interfaces", None) or self._derive_interfaces())
        self.scalar_args: Dict[str, int] = dict(pick(scalar_args, "scalar_args", {}))
        self.make_inputs = pick(make_inputs, "make_inputs", None)
        self.reference = pick(reference, "reference", None)
        self.external_models: Dict[str, Callable] = dict(
            pick(external_models, "external_models", {}))
        self.output_warmup: Dict[str, int] = dict(
            pick(output_warmup, "output_warmup", {}))

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_kernel(cls, kernel: str, *, config: Optional[FlowConfig] = None,
                    **parameters: Any) -> "Flow":
        """Build a registered kernel and wrap it in a Flow.

        Kernel size parameters are passed through to the kernel builder
        (``Flow.from_kernel("gemm", size=8)``).
        """
        from repro.kernels import build_kernel
        return cls(build_kernel(kernel, **parameters), config=config)

    @classmethod
    def from_graph(cls, graph: Any, *,
                   config: Optional[FlowConfig] = None) -> "Flow":
        """Wrap a :class:`~repro.graph.DesignGraph` in a Flow.

        The flow gains a ``compose`` stage ahead of ``hir``: the composed
        module is cached under the graph's fingerprint (which folds in every
        node module's content), so editing any node's HIR — or rewiring the
        graph — transparently rebuilds the composition and invalidates every
        downstream stage.
        """
        return cls(graph, config=config)

    @classmethod
    def from_scenario(cls, scenario: str, *,
                      config: Optional[FlowConfig] = None,
                      **parameters: Any) -> "Flow":
        """Build a registered composed scenario and wrap it in a Flow."""
        from repro.graph import build_scenario
        return cls(build_scenario(scenario, **parameters), config=config)

    # -- source introspection ------------------------------------------------
    def _functions(self) -> List[FuncOp]:
        return [op for op in self.module.symbols()
                if isinstance(op, FuncOp) and not op.is_external]

    def _default_top(self) -> str:
        functions = self._functions()
        if len(functions) == 1:
            return functions[0].symbol_name
        names = [f.symbol_name for f in functions]
        raise FlowError(
            f"cannot infer the top function of a module with "
            f"{len(functions)} functions ({names}); pass Flow(..., top=...)"
        )

    def _top_func(self) -> FuncOp:
        func = self.module.lookup(self.top)
        if not isinstance(func, FuncOp):
            raise FlowError(f"top function @{self.top} not found in module")
        return func

    def _derive_interfaces(self) -> Dict[str, MemrefType]:
        func = self._top_func()
        return {name: arg.type
                for arg, name in zip(func.arguments, func.arg_names)
                if isinstance(arg.type, MemrefType)}

    # -- stage cache --------------------------------------------------------
    def _stage(self, stage: str, fingerprint: str,
               provenance: Tuple[Tuple[str, str], ...],
               build: Callable[[], Any], tier: Optional[tuple] = None
               ) -> Artifact:
        """The one stage runner: cache lookup, timing, span, hit/miss count.

        ``provenance`` is the stage-cache key: a cached artifact is served
        only while its provenance equals the new one.  ``tier`` — ``(kind,
        store key, encode, decode, decode errors)`` — reads ``build()``
        through the configured store (``ArtifactStore.read_later``): a miss
        builds and publishes inside the stage, and a hit is decoded on the
        first read of the artifact's value.  A ``build`` with a tier must not
        reference the Flow: a stored artifact keeps it for a rebuild until
        its value is read.
        """
        fetch_start = _time.perf_counter()
        cached = self._stages.get(stage)
        if cached is not None and cached.provenance == provenance:
            _STAGE_STATS["hits"] += 1
            with TRACER.activated(self.config.trace):
                TRACER.count("flow.stage.hit")
                TRACER.event("flow.stage.hit", cat="flow", stage=stage,
                             fingerprint=fingerprint[:12])
            return cached.fetched(_time.perf_counter() - fetch_start)
        _STAGE_STATS["misses"] += 1
        with TRACER.activated(self.config.trace):
            TRACER.count("flow.stage.miss")
            with TRACER.span(f"flow.{stage}", cat="flow",
                             flow=getattr(self, "name", ""),
                             fingerprint=fingerprint[:12],
                             provenance=dict(provenance)):
                start = _time.perf_counter()
                store = None if tier is None else self.config.resolve_store()
                if store is None:
                    value = build()
                else:
                    kind, key, *codec = tier
                    value = _Stored(store.read_later(kind, key, build, *codec))
                seconds = _time.perf_counter() - start
        artifact = Artifact(stage=stage, value=value, seconds=seconds,
                            fingerprint=fingerprint, provenance=provenance,
                            cached=False)
        self._stages[stage] = artifact
        return artifact

    def clear(self) -> None:
        """Drop every cached stage artifact (next access rebuilds)."""
        self._stages.clear()

    def timings(self) -> Dict[str, float]:
        """Seconds spent building each currently cached stage."""
        return {stage: artifact.seconds
                for stage, artifact in self._stages.items()}

    # -- stages -------------------------------------------------------------
    def compose(self):
        """The composed artifacts of a graph-backed flow (cached per graph).

        The cache key is :meth:`repro.graph.DesignGraph.fingerprint` — a hash
        over every node module's content plus the edge/expose structure — so
        mutating one node's HIR rebuilds the composition while an untouched
        graph is served from cache.
        """
        if self.graph is None:
            raise FlowError(
                f"flow '{getattr(self, 'name', '?')}' was not built from a "
                "DesignGraph; construct it with Flow.from_graph(...)"
            )
        fingerprint = self.graph.fingerprint()
        return self._stage("compose", fingerprint, (("graph", fingerprint),),
                           self.graph.build)

    def _adopt_composed(self, artifacts: Any, fingerprint: str) -> None:
        """Point this flow at freshly composed artifacts (graph changed)."""
        self._adopted_graph_fingerprint = fingerprint
        self.module = artifacts.module
        self.top = artifacts.top
        self.interfaces = dict(artifacts.interfaces)
        self.scalar_args = dict(artifacts.scalar_args)
        self.make_inputs = artifacts.make_inputs
        self.reference = artifacts.reference
        self.external_models = dict(artifacts.external_models)
        self.output_warmup = dict(artifacts.output_warmup)

    def hir(self) -> Artifact[ModuleOp]:
        """The source HIR module, structurally verified (lazily, per content)."""
        if self.graph is not None:
            composed = self.compose()
            # Adopt whenever the graph content moved past what this flow
            # last adopted — NOT on the artifact's cached flag, which a
            # direct compose() call in between would already have consumed.
            if composed.fingerprint != getattr(
                    self, "_adopted_graph_fingerprint", None):
                self._adopt_composed(composed.value, composed.fingerprint)
        fingerprint = module_fingerprint(self.module)
        provenance = (("module", fingerprint),
                      ("verify_structure", str(self.config.verify_structure)))

        def build():
            if self.config.verify_structure:
                verify_structure(self.module)
            return self.module

        return self._stage("hir", fingerprint, provenance, build)

    def verified(self):
        """Schedule-verification report for the source module (no raise)."""
        from repro.passes.schedule_verifier import verify_schedule
        parent = self.hir()
        return self._stage("verified", parent.fingerprint,
                           (("module", parent.fingerprint),),
                           lambda: verify_schedule(self.module))

    def optimized(self) -> Artifact[ModuleOp]:
        """The module after the configured pass pipeline.

        ``pipeline="none"`` returns the source module untouched (what
        ``generate_verilog_impl`` compiles); the optimizing pipelines run on a
        clone, so the source module is never mutated by a Flow.  On a store
        hit the stored module is parsed on the first read of the value.
        """
        parent = self.hir()
        pipeline = self.config.pipeline
        provenance = (("module", parent.fingerprint),
                      ("pipeline", pipeline),
                      ("verify_each", str(self.config.verify_each)))
        module, config, report = self.module, self.config, self._pass_report

        def build():
            if pipeline == "none":
                return module
            manager = _pass_manager(config)
            if pipeline == "verify":
                # Verification does not mutate; run it on the source module.
                manager.run(module)
                return module
            clone = module.clone()
            manager.run(clone)
            report[:] = [manager.timing_report()]
            return clone

        tier = None
        if pipeline not in ("none", "verify"):
            # Disk tier: an optimizing pipeline's output is a deterministic,
            # round-trippable function of (source content, pipeline config),
            # so a store hit replaces the whole pass pipeline with a parse.
            # Blobs are printed with_locations so the parsed module carries
            # the original source locations — Verilog regenerated from it is
            # byte-identical, location comments included.
            from repro.ir.printer import print_module
            tier = ("ir", f"{parent.fingerprint}-{pipeline}-"
                          f"{int(self.config.verify_each)}",
                    lambda module: print_module(module, with_locations=True),
                    _parse_stored_ir, IRError)
        return self._stage("optimized", parent.fingerprint, provenance,
                           build, tier)

    def pass_report(self) -> Optional[str]:
        """Per-pass timing report of the last optimize run (None before)."""
        return self._pass_report[-1] if self._pass_report else None

    def verilog(self) -> Artifact[VerilogArtifact]:
        """Generate Verilog for the optimized module (cached per content).

        Lowers inside the stage unless the store serves the text (see
        :class:`VerilogArtifact`).
        """
        parent = self.optimized()
        # The optimized module is either the source itself (parent
        # fingerprint IS its content hash) or a Flow-internal clone that
        # nothing else can mutate and that is a deterministic function of
        # (source content, pipeline) — so keying on the parent fingerprint +
        # pipeline is sound and avoids re-printing the clone per access.
        fingerprint = parent.fingerprint
        provenance = (("optimized", fingerprint), ("top", self.top),
                      ("pipeline", self.config.pipeline),
                      ("verify_each", str(self.config.verify_each)))

        def build():
            value = VerilogArtifact(parent, self.top)
            store = self.config.resolve_store()
            if store is None:
                value._lowered()
            else:
                # Disk tier: preload (or publish) the emitted text, so
                # `.text` costs a checksum-verified read instead of lowering
                # and a full emission.
                value._text = store.read_through(
                    "verilog", self._design_key(fingerprint),
                    lambda: value.text)
            return value

        return self._stage("verilog", fingerprint, provenance, build)

    def _design_key(self, fingerprint: str) -> str:
        """The persistent-store key for design-level artifacts: the module
        content fingerprint plus everything else that shapes the design."""
        return (f"{fingerprint}-{self.top}-{self.config.pipeline}-"
                f"{int(self.config.verify_each)}")

    def resources(self):
        """Estimate FPGA resources of the generated design."""
        import json
        from repro.resources.model import ResourceReport, estimate_resources
        parent = self.verilog()
        names = ("lut", "ff", "dsp", "bram")

        def decode(payload: bytes) -> ResourceReport:
            raw = json.loads(payload)
            return ResourceReport(**{name: raw[name] for name in names})

        tier = ("resources", self._design_key(parent.fingerprint),
                lambda report: json.dumps(
                    {name: getattr(report, name) for name in names},
                    sort_keys=True),
                decode, (ValueError, KeyError, TypeError))
        return self._stage("resources", parent.fingerprint,
                           (("verilog", parent.fingerprint),),
                           lambda: estimate_resources(parent.value.design),
                           tier)

    # -- simulation ---------------------------------------------------------
    @property
    def design(self):
        """Convenience: the generated :class:`~repro.verilog.ast.Design`."""
        return self.verilog().value.design

    @property
    def verilog_text(self) -> str:
        """Convenience: the emitted Verilog source text."""
        return self.verilog().value.text

    def _resolve_inputs(self, seed: Optional[int],
                        inputs: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
        if inputs is None:
            if self.make_inputs is None:
                raise FlowError(
                    f"flow '{self.name}' has no stimulus generator; pass "
                    "simulate(inputs={...}) or construct the Flow with "
                    "make_inputs="
                )
            return dict(self.make_inputs(0 if seed is None else seed))
        resolved = dict(inputs)
        unknown = sorted(set(resolved) - set(self.interfaces))
        if unknown:
            raise FlowError(
                f"unknown interface(s) {unknown}; top @{self.top} exposes "
                f"{sorted(self.interfaces)}"
            )
        for name, memref_type in self.interfaces.items():
            if name not in resolved:
                if memref_type.can_read:
                    # The design reads this memory: running it zero-filled
                    # would silently compute on garbage.
                    raise FlowError(
                        f"missing stimulus for readable interface '{name}' "
                        f"of @{self.top}; only write-only interfaces may be "
                        "omitted (they are zero-filled)"
                    )
                import numpy as np
                resolved[name] = np.zeros(memref_type.shape, dtype=np.int64)
        return resolved

    def simulate(self, seed: int = 0, *,
                 inputs: Optional[Mapping[str, Any]] = None,
                 engine: Optional[str] = None,
                 scalar_args: Optional[Mapping[str, int]] = None,
                 drain_cycles: int = 16,
                 max_cycles: int = 100000,
                 profile: Optional[bool] = None,
                 ) -> Artifact[SimulationOutcome]:
        """Simulate one stimulus set on the resolved engine.

        Stimuli come from the flow's ``make_inputs(seed)`` generator unless
        ``inputs`` maps interface names to tensors directly (missing
        write-only interfaces are zero-filled).  Simulation always runs —
        only the compile artifacts behind it are cached (the Flow stages
        plus the per-design engine compile cache).  ``profile`` (per-call;
        default :attr:`FlowConfig.profile`) collects a
        :class:`~repro.obs.simprofile.SimProfile` into ``outcome.profile``.

        :meth:`_choose_engine` picks the executing engine before the run,
        and every error of the run propagates, an injected fault included.
        Provenance names the ``engine`` that ran, plus ``requested`` and
        ``fallback_reason`` when that differs from the request.
        """
        from repro.sim.testbench import run_design_impl
        design_artifact = self.verilog()
        requested = self.config.resolve_engine(engine)
        profiler = None
        if self.config.profile if profile is None else profile:
            from repro.obs.simprofile import SimProfiler
            profiler = SimProfiler()
        resolved = self._resolve_inputs(seed, inputs)
        memories = {name: (memref_type, resolved[name])
                    for name, memref_type in self.interfaces.items()}
        scalars = {**self.scalar_args, **(scalar_args or {})}
        # Persist generated simulator code only for pure designs:
        # external models change elaboration in ways the design key cannot
        # see, so those compiles stay private to this process.
        store = None if self.external_models else self.config.resolve_store()
        from repro.sim.engine.cache import persist_compiled
        engine_name, reason = self._choose_engine(requested, profiler)
        start = _time.perf_counter()
        with TRACER.activated(self.config.trace), \
                TRACER.span("flow.simulate", cat="flow", flow=self.name,
                            engine=engine_name, seed=seed,
                            fingerprint=design_artifact.fingerprint[:12]), \
                persist_compiled(store,
                                 self._design_key(design_artifact.fingerprint)):
            if reason is not None:
                self._note_substitution(requested, engine_name, reason)
            run = run_design_impl(
                design_artifact.value,
                memories=memories,
                scalar_inputs=scalars,
                external_models=self.external_models or None,
                drain_cycles=drain_cycles,
                max_cycles=max_cycles,
                engine=engine_name,
                profiler=profiler,
            )
        seconds = _time.perf_counter() - start
        provenance = (("verilog", design_artifact.fingerprint),
                      ("engine", engine_name), ("seed", str(seed)))
        if engine_name != requested:
            provenance += (("requested", requested), ("fallback_reason", reason))
        if run.profile is not None and self.graph is not None:
            run.profile.bind_stream_edges(
                [edge.buffer_name for edge in self.graph.edges])
        outcome = SimulationOutcome(run=run, inputs=resolved,
                                    engine=engine_name,
                                    seed=None if inputs is not None else seed)
        return Artifact(stage="simulate", value=outcome, seconds=seconds,
                        fingerprint=design_artifact.fingerprint,
                        provenance=provenance)

    def _choose_engine(self, requested: str, profiler
                       ) -> Tuple[str, Optional[str]]:
        """``(engine, reason)`` for a ``requested`` engine, from the request,
        the external models and the profiler alone: nothing is loaded.

        Only ``vector`` has capability gaps: its fused loop cannot call
        external models or a per-cycle profiler.  Each gap runs the
        semantically identical ``compiled`` engine with its reason.  Other
        names pass through.
        """
        if requested != "vector":
            return requested, None
        if self.external_models:
            return "compiled", "external-models"
        if profiler is not None:
            return "compiled", "profiling"
        return "vector", None

    def _note_substitution(self, requested: str, engine: str,
                           reason: str) -> None:
        """Count one engine substitution and trace it with its reason."""
        from repro.resilience import bump
        bump("flow.engine_fallback")
        TRACER.count("flow.engine_fallback")
        TRACER.event("flow.engine_fallback", cat="flow", flow=self.name,
                     requested=requested, engine=engine, reason=reason)

    def simulate_batch(self, seeds: Optional[Iterable[int]] = None, *,
                       inputs_per_lane: Optional[Sequence[Mapping[str, Any]]] = None,
                       scalar_args: Optional[Mapping[str, int]] = None,
                       drain_cycles: int = 16,
                       max_cycles: int = 100000,
                       profile: Optional[bool] = None,
                       ) -> Artifact[BatchOutcome]:
        """Simulate one stimulus lane per seed with the batched engine."""
        from repro.sim.engine.batch import run_design_batch_impl
        design_artifact = self.verilog()
        if inputs_per_lane is None:
            if seeds is None:
                raise FlowError("simulate_batch needs seeds or inputs_per_lane")
            seeds = list(seeds)
            lanes = [self._resolve_inputs(seed, None) for seed in seeds]
        else:
            seeds = list(seeds) if seeds is not None else None
            lanes = [self._resolve_inputs(None, inputs) for inputs in inputs_per_lane]
        scalars = {**self.scalar_args, **(scalar_args or {})}
        provenance = (("verilog", design_artifact.fingerprint),
                      ("engine", "batched"), ("lanes", str(len(lanes))))
        profiler = None
        if self.config.profile if profile is None else profile:
            from repro.obs.simprofile import BatchSimProfiler
            profiler = BatchSimProfiler()
        from repro.sim.engine.cache import persist_compiled
        store = None if self.external_models else self.config.resolve_store()
        start = _time.perf_counter()
        with TRACER.activated(self.config.trace), \
                TRACER.span("flow.simulate_batch", cat="flow",
                            flow=self.name, lanes=len(lanes),
                            fingerprint=design_artifact.fingerprint[:12]), \
                persist_compiled(store,
                                 self._design_key(design_artifact.fingerprint)):
            run = run_design_batch_impl(
                design_artifact.value.design,
                memories={name: (memref_type,
                                 [inputs[name] for inputs in lanes])
                          for name, memref_type in self.interfaces.items()},
                scalar_inputs=scalars,
                external_models=self.external_models or None,
                drain_cycles=drain_cycles,
                max_cycles=max_cycles,
                profiler=profiler,
            )
        seconds = _time.perf_counter() - start
        if run.profiles is not None and self.graph is not None:
            edge_buffers = [edge.buffer_name for edge in self.graph.edges]
            for lane_profile in run.profiles:
                lane_profile.bind_stream_edges(edge_buffers)
        outcome = BatchOutcome(run=run, inputs_per_lane=lanes, seeds=seeds)
        return Artifact(stage="simulate_batch", value=outcome, seconds=seconds,
                        fingerprint=design_artifact.fingerprint,
                        provenance=provenance)

    def validate(self, seed: int = 0, *, engine: Optional[str] = None,
                 drain_cycles: int = 16,
                 max_cycles: int = 100000,
                 ) -> Artifact[ValidationOutcome]:
        """Simulate ``seed`` and compare every output to the numpy reference."""
        if self.reference is None:
            raise FlowError(
                f"flow '{self.name}' has no reference model; construct it "
                "from KernelArtifacts or pass reference="
            )
        simulated = self.simulate(seed=seed, engine=engine,
                                  drain_cycles=drain_cycles,
                                  max_cycles=max_cycles)
        outcome = simulated.value
        ok = self._check_outputs(outcome.run, outcome.inputs)
        value = ValidationOutcome(name=self.name, engine=outcome.engine,
                                  cycles=outcome.run.cycles, ok=ok,
                                  run=outcome.run)
        return Artifact(stage="validate", value=value,
                        seconds=simulated.seconds,
                        fingerprint=simulated.fingerprint,
                        provenance=simulated.provenance + (("ok", str(ok)),))

    def _check_outputs(self, run, inputs) -> bool:
        if not run.done:
            return False
        return outputs_match(self.reference(inputs), run.memory_array,
                             self.output_warmup)

    # -- reporting ----------------------------------------------------------
    def report(self) -> str:
        """Human-readable summary of the stages built so far."""
        lines = [f"Flow '{self.name}' (top=@{self.top}, "
                 f"pipeline={self.config.pipeline})"]
        for stage, artifact in self._stages.items():
            lines.append(f"  {stage:<10} [{artifact.fingerprint[:12]}] "
                         f"{artifact.seconds * 1e3:9.2f} ms  "
                         f"{artifact.value_type()}")
        if not self._stages:
            lines.append("  (no stages built yet)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Flow '{self.name}' top=@{self.top} "
                f"pipeline={self.config.pipeline} "
                f"stages={sorted(self._stages)}>")


__all__ = [
    "Artifact",
    "BatchOutcome",
    "ENV_VARS",
    "FALLBACK_REASONS",
    "Flow",
    "FlowConfig",
    "FlowError",
    "PIPELINES",
    "SimulationOutcome",
    "ValidationOutcome",
    "VerilogArtifact",
    "outputs_match",
]
