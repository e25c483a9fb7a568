"""Differential oracles: every redundant path through the toolchain is a bug
detector.

The repo deliberately keeps redundant implementations — a legacy full-re-walk
pass pipeline next to the worklist one, an interpreted reference simulator
next to the compiled and batched engines, cached Flow stages next to cold
rebuilds.  Each oracle runs one generated program down two or more of those
paths and demands equivalence:

``generator``
    The program itself must be structurally valid and schedule-clean; a
    diagnostic here is a bug in the fuzzer's generator (or a verifier
    regression) rather than in the compiler under test.
``pipeline``
    Worklist passes vs the seed-equivalent legacy passes: byte-identical
    optimized IR text and byte-identical emitted Verilog.
``engines``
    Interpreted vs compiled simulation in lockstep (every signal and memory
    word, every phase, via :class:`DifferentialSimulator`), plus the vector
    and batched engines lane-for-lane against per-lane interpreted runs.
    The program's runtime-bound twin (its outermost loop bounded by a
    runtime argument, so it has no static steady state) runs through the
    differential and vector engines too.
``compose``
    The generated program composed with a derived downstream program into a
    two-node :class:`repro.graph.DesignGraph` (producer output streaming
    into consumer input through an on-chip buffer): the composed multi-
    module design must be schedule-clean, and interpreted, compiled and
    batched simulation of it must agree exactly like the single-kernel
    engine oracle demands.
``flow-cache``
    Cold vs warm :class:`repro.flow.Flow` stages: warm accesses must be
    served from cache with identical bytes, rebuilding a fresh session must
    reproduce them, and mutating the source module must invalidate (then
    reproducing the original content must restore the original bytes).
``profile``
    The opt-in simulation profiler (:mod:`repro.obs.simprofile`) counts
    only architectural events, so the profile of one stimulus must be
    bit-identical — per-op firings, per-cycle event histogram, port
    occupancy, memory write traffic — across the interpreted, compiled and
    batched engines (:meth:`repro.obs.simprofile.SimProfile.signature`).
``faults``
    Crash-safety (:mod:`repro.store` / :mod:`repro.resilience`): the flow
    runs under a matrix of seeded fault plans — injected I/O errors, torn
    writes, bit-flipped payloads, failed fsyncs/renames/locks, engine
    compile failures.  Each faulted run must either fail with a clean typed
    error or produce byte-identical Verilog and identical simulation
    results; and a fault-free session over the *same* (possibly damaged)
    persistent store must always reproduce the baseline bytes — no fault
    may poison the store into serving a wrong artifact.

Every check is pure with respect to the spec: oracles materialize their own
modules and never mutate the spec, so the shrinker can re-run them freely.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.fuzz.spec import MaterializedProgram, ProgramSpec, materialize
from repro.ir.errors import IRError
from repro.ir.printer import print_module
from repro.ir.verifier import verify as verify_structure
from repro.passes.pipeline import optimization_pipeline
from repro.passes.schedule_verifier import verify_schedule
from repro.verilog.codegen import generate_verilog_impl
from repro.verilog.emitter import emit_design

#: Oracle names in the order they run.
ORACLES: Tuple[str, ...] = ("pipeline", "engines", "compose", "flow-cache",
                            "profile", "faults")

#: The seeded fault-plan matrix the ``faults`` oracle (and the CI chaos job)
#: sweeps: every fault point of the store's publish/read path plus the
#: engine-compile fault (a typed error), one plan at a time.
FAULT_PLAN_MATRIX: Tuple[str, ...] = (
    "store.write:io_error",
    "store.write:torn@2",
    "store.write:corrupt",
    "store.fsync:io_error",
    "store.rename:io_error",
    "store.read:io_error*3",
    "store.lock:io_error*2",
    "engine.compile:error",
)

#: Stimulus lanes the engine oracle drives through the batched engine.
DEFAULT_LANES = 3

#: Cycle budget for one generated program (they finish in a few hundred).
MAX_CYCLES = 20000


@dataclass(frozen=True)
class OracleFailure:
    """One divergence between two paths that must agree."""

    oracle: str
    message: str

    def render(self) -> str:
        return f"[{self.oracle}] {self.message}"


def _first_diff(expected: str, actual: str, label_a: str, label_b: str,
                context: int = 2) -> str:
    """A short unified-diff excerpt pinpointing the first divergence."""
    diff = list(difflib.unified_diff(
        expected.splitlines(), actual.splitlines(),
        fromfile=label_a, tofile=label_b, lineterm="", n=context,
    ))
    head = diff[:14]
    if len(diff) > len(head):
        head.append(f"... ({len(diff) - len(head)} more diff lines)")
    return "\n".join(head)


def make_lane_inputs(spec: ProgramSpec,
                     interfaces: Dict[str, object],
                     input_names: Sequence[str],
                     output_names: Sequence[str],
                     lane: int) -> Dict[str, np.ndarray]:
    """Deterministic stimulus tensors for ``(spec.seed, lane)``."""
    rng = np.random.default_rng([spec.seed & 0x7FFFFFFF, lane])
    inputs: Dict[str, np.ndarray] = {}
    for name in input_names:
        shape = interfaces[name].shape
        inputs[name] = rng.integers(-1000, 1000, size=shape)
    for name in output_names:
        inputs[name] = np.zeros(interfaces[name].shape, dtype=np.int64)
    return inputs


def _optimized_module(spec: ProgramSpec, legacy: bool,
                      runtime_bound: bool = False):
    program = materialize(spec, runtime_bound=runtime_bound)
    optimization_pipeline(verify_each=False, legacy=legacy).run(program.module)
    return program


def _verilog_text(program: MaterializedProgram) -> str:
    result = generate_verilog_impl(program.module, top=program.top)
    return emit_design(result.design)


# --------------------------------------------------------------------------- #
# Individual oracles
# --------------------------------------------------------------------------- #


def check_generator(spec: ProgramSpec) -> Optional[OracleFailure]:
    """The generated program must be structurally and schedule-valid."""
    try:
        program = materialize(spec)
        verify_structure(program.module)
    except IRError as error:
        return OracleFailure("generator", f"materialization failed: {error}")
    report = verify_schedule(program.module)
    if not report.ok:
        return OracleFailure(
            "generator",
            "generated program is not schedule-clean: "
            + "; ".join(d.render() for d in report.diagnostics[:3]),
        )
    return None


def check_pipeline(spec: ProgramSpec) -> Optional[OracleFailure]:
    """Worklist and legacy pass pipelines must agree byte for byte."""
    try:
        fast = _optimized_module(spec, legacy=False)
        legacy = _optimized_module(spec, legacy=True)
    except IRError as error:
        return OracleFailure("pipeline", f"pipeline crashed: {error}")
    fast_ir = print_module(fast.module)
    legacy_ir = print_module(legacy.module)
    if fast_ir != legacy_ir:
        return OracleFailure(
            "pipeline",
            "worklist pipeline diverged from legacy on the optimized IR:\n"
            + _first_diff(legacy_ir, fast_ir, "legacy-ir", "worklist-ir"),
        )
    fast_verilog = _verilog_text(fast)
    legacy_verilog = _verilog_text(legacy)
    if fast_verilog != legacy_verilog:
        return OracleFailure(
            "pipeline",
            "pipelines agree on IR but emitted different Verilog:\n"
            + _first_diff(legacy_verilog, fast_verilog,
                          "legacy-verilog", "worklist-verilog"),
        )
    return None


def _vector_mismatch(label: str, reference, replay,
                     output_names: Sequence[str]) -> Optional[OracleFailure]:
    """The first way the ``vector`` run ``replay`` differs from the
    per-cycle run ``reference``: cycles, an output memory, or an interface's
    access counts."""
    if replay.cycles != reference.cycles:
        return OracleFailure(
            "engines",
            f"{label} took {replay.cycles} cycles, the per-cycle run took "
            f"{reference.cycles}")
    for name in output_names:
        expected = np.asarray(reference.memory_array(name))
        produced = np.asarray(replay.memory_array(name))
        if not np.array_equal(produced, expected):
            bad = np.argwhere(produced != expected)
            return OracleFailure(
                "engines",
                f"{label} output '{name}' differs from the per-cycle run at "
                f"{len(bad)} position(s), first at {tuple(bad[0])}: vector="
                f"{produced[tuple(bad[0])]} per-cycle="
                f"{expected[tuple(bad[0])]}")
    for name, memory in reference.memories.items():
        other = replay.memories[name]
        if (other.reads, other.writes) != (memory.reads, memory.writes):
            return OracleFailure(
                "engines",
                f"{label} access counts on '{name}' differ: "
                f"{(other.reads, other.writes)} != "
                f"{(memory.reads, memory.writes)}")
    return None


def check_engines(spec: ProgramSpec,
                  lanes: int = DEFAULT_LANES) -> Optional[OracleFailure]:
    """Interpreted, compiled, batched and vector engines: one trace.

    Lane 0 runs the differential engine (interpreted + compiled in lockstep,
    plus its fused-run vector leg); every lane is then replayed through the
    vector engine and the batched engine and compared bit-for-bit.  Last,
    the runtime-bound twin runs (:func:`_check_runtime_bound_twin`).
    """
    from repro.ir.errors import SimulationError
    from repro.sim.engine.batch import run_design_batch_impl
    from repro.sim.engine.differential import DivergenceError
    from repro.sim.testbench import run_design_impl

    try:
        program = _optimized_module(spec, legacy=False)
        design = generate_verilog_impl(program.module,
                                       top=program.top).design
    except IRError as error:
        return OracleFailure("engines", f"compilation crashed: {error}")

    lane_inputs = [
        make_lane_inputs(spec, program.interfaces, program.input_names,
                         program.output_names, lane)
        for lane in range(lanes)
    ]

    def memories_for(inputs):
        return {name: (memref_type, inputs[name])
                for name, memref_type in program.interfaces.items()}

    single_runs = []
    for lane, inputs in enumerate(lane_inputs):
        # Lane 0 runs the interpreted reference and the compiled engine in
        # lockstep; the remaining lanes establish per-lane references for
        # the batched comparison below.
        engine = "differential" if lane == 0 else "interpreted"
        try:
            run = run_design_impl(design, memories=memories_for(inputs),
                                  max_cycles=MAX_CYCLES, drain_cycles=16,
                                  engine=engine)
        except DivergenceError as error:
            return OracleFailure(
                "engines", f"compiled engine diverged from the interpreted "
                f"reference (lane {lane} stimulus): {error}")
        except SimulationError as error:
            return OracleFailure("engines", f"simulation crashed: {error}")
        if not run.done:
            return OracleFailure(
                "engines",
                f"design never pulsed done within {MAX_CYCLES} cycles "
                f"(lane {lane})")
        single_runs.append(run)

    for lane, (inputs, single) in enumerate(zip(lane_inputs, single_runs)):
        try:
            replay = run_design_impl(design, memories=memories_for(inputs),
                                     max_cycles=MAX_CYCLES, drain_cycles=16,
                                     engine="vector")
        except SimulationError as error:
            return OracleFailure(
                "engines", f"vector engine crashed (lane {lane}): {error}")
        failure = _vector_mismatch(f"vector lane {lane}", single, replay,
                                   program.output_names)
        if failure is not None:
            return failure

    try:
        batch = run_design_batch_impl(
            design,
            memories={name: (memref_type,
                             [inputs[name] for inputs in lane_inputs])
                      for name, memref_type in program.interfaces.items()},
            max_cycles=MAX_CYCLES, drain_cycles=16,
        )
    except SimulationError as error:
        return OracleFailure("engines", f"batched engine crashed: {error}")

    for lane, single in enumerate(single_runs):
        if not batch.done[lane]:
            return OracleFailure(
                "engines", f"batched lane {lane} never finished "
                f"(single-lane run finished in {single.cycles} cycles)")
        if int(batch.cycles[lane]) != single.cycles:
            return OracleFailure(
                "engines",
                f"batched lane {lane} took {int(batch.cycles[lane])} cycles, "
                f"single-lane run took {single.cycles}")
        for name in program.output_names:
            expected = single.memory_array(name)
            produced = batch.memory_array(name, lane)
            if not np.array_equal(produced, expected):
                bad = np.argwhere(np.asarray(produced) != np.asarray(expected))
                return OracleFailure(
                    "engines",
                    f"batched lane {lane} output '{name}' differs from the "
                    f"single-lane run at {len(bad)} position(s), first at "
                    f"{tuple(bad[0])}: batched="
                    f"{np.asarray(produced)[tuple(bad[0])]} single="
                    f"{np.asarray(expected)[tuple(bad[0])]}")
    return _check_runtime_bound_twin(spec)


def _check_runtime_bound_twin(spec: ProgramSpec) -> Optional[OracleFailure]:
    """The spec's runtime-bound twin (:func:`materialize` with
    ``runtime_bound``) at n = extent and n = max(1, extent - 1): the
    differential engine, vector leg included, must finish, and a ``vector``
    run must match it bit for bit."""
    from repro.ir.errors import SimulationError
    from repro.sim.testbench import run_design_impl

    try:
        program = _optimized_module(spec, legacy=False, runtime_bound=True)
        design = generate_verilog_impl(program.module,
                                       top=program.top).design
    except IRError as error:
        return OracleFailure(
            "engines", f"runtime-bound twin compilation crashed: {error}")
    inputs = make_lane_inputs(spec, program.interfaces, program.input_names,
                              program.output_names, lane=0)
    memories = {name: (memref_type, inputs[name])
                for name, memref_type in program.interfaces.items()}
    extent = spec.sizes[0]
    for n in dict.fromkeys((extent, max(1, extent - 1))):
        label = f"runtime-bound twin (n={n})"
        runs = {}
        for engine in ("differential", "vector"):
            try:
                runs[engine] = run_design_impl(
                    design, memories=memories, scalar_inputs={"n": n},
                    max_cycles=MAX_CYCLES, drain_cycles=16, engine=engine)
            except SimulationError as error:
                return OracleFailure(
                    "engines", f"{label} failed on the {engine} engine: "
                    f"{type(error).__name__}: {error}")
        failure = _vector_mismatch(f"{label} on vector", runs["differential"],
                                   runs["vector"], program.output_names)
        if failure is not None:
            return failure
    return None


def check_compose(spec: ProgramSpec,
                  lanes: int = 2) -> Optional[OracleFailure]:
    """A two-node composition of the program must behave like one design."""
    from repro.ir.errors import SimulationError
    from repro.graph import DesignGraph, GraphError
    from repro.fuzz.generator import derive_consumer_spec
    from repro.kernels.base import KernelArtifacts
    from repro.sim.engine.batch import run_design_batch_impl
    from repro.sim.engine.differential import DivergenceError
    from repro.sim.testbench import run_design_impl

    consumer_spec = derive_consumer_spec(spec)
    try:
        producer = materialize(spec, name="producer")
        consumer = materialize(consumer_spec, name="consumer")
        graph = DesignGraph(f"fuzz_compose_{spec.seed}")
        producer_node = graph.add_node(KernelArtifacts(
            name="producer", module=producer.module, top=producer.top,
            interfaces=producer.interfaces))
        consumer_node = graph.add_node(KernelArtifacts(
            name="consumer", module=consumer.module, top=consumer.top,
            interfaces=consumer.interfaces))
        graph.connect(producer_node, producer.output_names[0],
                      consumer_node, consumer.input_names[0])
        artifacts = graph.build()
    except (GraphError, IRError) as error:
        return OracleFailure("compose", f"composition failed: {error}")
    try:
        verify_structure(artifacts.module)
    except IRError as error:
        return OracleFailure(
            "compose", f"composed module is structurally invalid: {error}")
    report = verify_schedule(artifacts.module)
    if not report.ok:
        return OracleFailure(
            "compose",
            "composed design is not schedule-clean: "
            + "; ".join(d.render() for d in report.diagnostics[:3]),
        )
    try:
        optimization_pipeline(verify_each=False).run(artifacts.module)
        design = generate_verilog_impl(artifacts.module,
                                       top=artifacts.top).design
    except IRError as error:
        return OracleFailure("compose", f"composed compile crashed: {error}")

    lane_inputs = [dict(artifacts.make_inputs(lane)) for lane in range(lanes)]
    outputs = [name for name, memref_type in artifacts.interfaces.items()
               if memref_type.can_write]

    single_runs = []
    for lane, inputs in enumerate(lane_inputs):
        engine = "differential" if lane == 0 else "interpreted"
        try:
            run = run_design_impl(
                design,
                memories={name: (memref_type, inputs[name])
                          for name, memref_type in artifacts.interfaces.items()},
                max_cycles=MAX_CYCLES, drain_cycles=16, engine=engine)
        except DivergenceError as error:
            return OracleFailure(
                "compose", f"compiled engine diverged from the interpreted "
                f"reference on the composed design (lane {lane}): {error}")
        except SimulationError as error:
            return OracleFailure("compose",
                                 f"composed simulation crashed: {error}")
        if not run.done:
            return OracleFailure(
                "compose",
                f"composed design never pulsed done within {MAX_CYCLES} "
                f"cycles (lane {lane})")
        single_runs.append(run)

    try:
        batch = run_design_batch_impl(
            design,
            memories={name: (memref_type,
                             [inputs[name] for inputs in lane_inputs])
                      for name, memref_type in artifacts.interfaces.items()},
            max_cycles=MAX_CYCLES, drain_cycles=16)
    except SimulationError as error:
        return OracleFailure("compose",
                             f"batched composed engine crashed: {error}")
    for lane, single in enumerate(single_runs):
        if not batch.done[lane] or int(batch.cycles[lane]) != single.cycles:
            return OracleFailure(
                "compose",
                f"batched lane {lane} of the composed design took "
                f"{int(batch.cycles[lane])} cycles (done={bool(batch.done[lane])}), "
                f"single-lane run took {single.cycles}")
        for name in outputs:
            expected = single.memory_array(name)
            produced = batch.memory_array(name, lane)
            if not np.array_equal(produced, expected):
                return OracleFailure(
                    "compose",
                    f"batched lane {lane} output '{name}' of the composed "
                    "design differs from the single-lane run")
    return None


def check_flow_cache(spec: ProgramSpec) -> Optional[OracleFailure]:
    """Flow stage caching must be invisible except for speed."""
    from repro.flow import Flow, FlowConfig
    from repro.hir.ops import ConstantOp

    config = FlowConfig(pipeline="optimize", verify_each=False)
    try:
        program = materialize(spec)
        flow = Flow(program.module, top=program.top, config=config)
        cold = flow.verilog()
        warm = flow.verilog()
    except IRError as error:
        return OracleFailure("flow-cache", f"flow crashed: {error}")
    if cold.cached:
        return OracleFailure(
            "flow-cache", "first verilog() access claims to be cached")
    if not warm.cached:
        return OracleFailure(
            "flow-cache", "second verilog() access was not served from the "
            "stage cache")
    if warm.value.text != cold.value.text:
        return OracleFailure(
            "flow-cache", "warm verilog() returned different bytes:\n"
            + _first_diff(cold.value.text, warm.value.text, "cold", "warm"))

    # A fresh session over a re-materialized (identical) module must land on
    # the same fingerprint and the same bytes.
    fresh = Flow(materialize(spec).module, top=program.top, config=config)
    rebuilt = fresh.verilog()
    if rebuilt.fingerprint != cold.fingerprint:
        return OracleFailure(
            "flow-cache",
            f"re-materialized module fingerprinted differently "
            f"({rebuilt.fingerprint} vs {cold.fingerprint}) — "
            "materialization is not deterministic")
    if rebuilt.value.text != cold.value.text:
        return OracleFailure(
            "flow-cache", "fresh flow produced different Verilog:\n"
            + _first_diff(cold.value.text, rebuilt.value.text,
                          "first-session", "fresh-session"))

    # Mutating the source module must invalidate every downstream stage;
    # restoring the original content must restore the original bytes.
    constant = next((op for op in program.module.walk()
                     if isinstance(op, ConstantOp)), None)
    if constant is None:
        return None
    original = constant.value
    constant.set_attr("value", original + 1)
    try:
        mutated = flow.verilog()
        if mutated.cached:
            return OracleFailure(
                "flow-cache",
                "stage cache served a stale artifact after the source module "
                "was mutated (fingerprint invalidation failed)")
        if mutated.fingerprint == cold.fingerprint:
            return OracleFailure(
                "flow-cache",
                "module content changed but the stage fingerprint did not")
    except IRError as error:
        return OracleFailure(
            "flow-cache", f"recompile after mutation crashed: {error}")
    finally:
        constant.set_attr("value", original)
    restored = flow.verilog()
    if restored.cached or restored.value.text != cold.value.text:
        return OracleFailure(
            "flow-cache",
            "restoring the original module content did not reproduce the "
            "original Verilog bytes")
    return None


def check_profile(spec: ProgramSpec) -> Optional[OracleFailure]:
    """The simulation profile of one stimulus must be engine-independent."""
    import json

    from repro.ir.errors import SimulationError
    from repro.obs.simprofile import BatchSimProfiler, SimProfiler
    from repro.sim.engine.batch import run_design_batch_impl
    from repro.sim.testbench import run_design_impl

    try:
        program = _optimized_module(spec, legacy=False)
        design = generate_verilog_impl(program.module,
                                       top=program.top).design
    except IRError as error:
        return OracleFailure("profile", f"compilation crashed: {error}")

    inputs = make_lane_inputs(spec, program.interfaces, program.input_names,
                              program.output_names, lane=0)
    memories = {name: (memref_type, inputs[name])
                for name, memref_type in program.interfaces.items()}

    signatures = {}
    try:
        for engine in ("interpreted", "compiled"):
            run = run_design_impl(design, memories=dict(memories),
                                  max_cycles=MAX_CYCLES, drain_cycles=16,
                                  engine=engine, profiler=SimProfiler())
            if not run.done:
                return OracleFailure(
                    "profile", f"design never pulsed done within "
                    f"{MAX_CYCLES} cycles ({engine})")
            signatures[engine] = run.profile.signature()
        batch = run_design_batch_impl(
            design,
            memories={name: (memref_type, [inputs[name]])
                      for name, memref_type in program.interfaces.items()},
            max_cycles=MAX_CYCLES, drain_cycles=16,
            profiler=BatchSimProfiler())
        if not batch.done[0]:
            return OracleFailure(
                "profile",
                f"design never pulsed done within {MAX_CYCLES} cycles "
                "(batched)")
        signatures["batched"] = batch.profiles[0].signature()
    except SimulationError as error:
        return OracleFailure("profile", f"profiled simulation crashed: "
                                        f"{error}")

    reference = signatures["interpreted"]
    for engine in ("compiled", "batched"):
        if signatures[engine] != reference:
            return OracleFailure(
                "profile",
                f"{engine} profile differs from the interpreted profile:\n"
                + _first_diff(json.dumps(reference, indent=1, sort_keys=True),
                              json.dumps(signatures[engine], indent=1,
                                         sort_keys=True),
                              "interpreted", engine))
    return None


def check_faults(spec: ProgramSpec,
                 plans: Sequence[str] = FAULT_PLAN_MATRIX
                 ) -> Optional[OracleFailure]:
    """Injected faults must never change what the toolchain produces.

    For every plan in :data:`FAULT_PLAN_MATRIX` the whole flow (optimize →
    Verilog → a compiled and a vector simulation, persisting through a fresh
    :class:`repro.store.ArtifactStore`, so every ``simcode`` program kind
    rides the matrix) runs twice over one store directory:

    1. *under the fault plan* — the run must either raise a clean typed
       error (:class:`~repro.ir.errors.IRError` subclass or an
       :class:`~repro.resilience.InjectedFault`) or produce byte-identical
       Verilog and identical cycle counts / output memories;
    2. *fault-free, same store* — whatever damage the faulted session left
       behind (torn temp files, corrupt blobs, missing fsyncs), a clean
       session over that store must reproduce the baseline exactly.  A
       fault may cost a rebuild; it may never poison a served artifact.

    One more session runs over the filled baseline store as if under
    another Python version (``repro.sim.engine.cache._BYTECODE`` patched):
    every ``simcode`` read is a plain miss (no blob counts as corrupt), the
    session publishes its own code blobs beside the old ones (their count
    doubles), and both engines reproduce the baseline.
    """
    import tempfile

    from repro.flow import Flow, FlowConfig
    from repro.resilience import FaultPlan, FaultPlanError, InjectedFault, \
        install_plan
    from repro.sim.engine import cache
    from repro.store import get_store, store_counters

    program = materialize(spec)
    inputs = make_lane_inputs(spec, program.interfaces, program.input_names,
                              program.output_names, lane=0)

    def run_session(store_dir: str):
        """One cold toolchain session persisting into ``store_dir``."""
        flow = Flow(materialize(spec).module, top=program.top,
                    config=FlowConfig(pipeline="optimize", verify_each=False,
                                      store_dir=store_dir))
        verilog = flow.verilog().value.text
        runs = []
        for engine in ("compiled", "vector"):
            outcome = flow.simulate(inputs=dict(inputs), engine=engine,
                                    max_cycles=MAX_CYCLES,
                                    drain_cycles=16).value
            if not outcome.run.done:
                raise IRError(
                    f"design never pulsed done within {MAX_CYCLES} cycles")
            runs.append((engine, outcome.run.cycles, {
                name: np.asarray(outcome.memory_array(name)).copy()
                for name in program.output_names}))
        return verilog, runs

    def describe_mismatch(plan: str, label: str, result) -> Optional[str]:
        verilog, runs = result
        if verilog != base_verilog:
            return (f"plan '{plan}': {label} produced different Verilog:\n"
                    + _first_diff(base_verilog, verilog, "fault-free", label))
        for (engine, cycles, memories), (_, base_cycles, base_memories) \
                in zip(runs, base_runs):
            if cycles != base_cycles:
                return (f"plan '{plan}': {label} {engine} simulation took "
                        f"{cycles} cycles, fault-free run took {base_cycles}")
            for name, expected in base_memories.items():
                if not np.array_equal(memories[name], expected):
                    return (f"plan '{plan}': {label} {engine} output "
                            f"'{name}' differs from the fault-free run")
        return None

    def simcode_blobs(store_dir: str) -> int:
        return sum(1 for blob in get_store(store_dir).iter_blobs()
                   if blob.kind == "simcode")

    with tempfile.TemporaryDirectory(prefix="repro-faults-base-") as base_dir:
        base_verilog, base_runs = run_session(base_dir)
        blobs, corrupt = simcode_blobs(base_dir), store_counters()["corrupt"]
        magic = cache._BYTECODE
        cache._BYTECODE = "0" * len(magic)
        try:
            foreign = run_session(base_dir)
        finally:
            cache._BYTECODE = magic
        message = describe_mismatch("bytecode", "foreign-bytecode session",
                                    foreign)
        if message is None and (store_counters()["corrupt"] != corrupt
                                or simcode_blobs(base_dir) != 2 * blobs):
            message = (f"foreign-bytecode session counted "
                       f"{store_counters()['corrupt'] - corrupt} corrupt "
                       f"blob(s); the store holds {simcode_blobs(base_dir)} "
                       f"simcode blobs, expected twice the baseline's "
                       f"{blobs}")
        if message is not None:
            return OracleFailure("faults", message)

    for plan in plans:
        try:
            fault_plan = FaultPlan.parse(plan, seed=spec.seed)
        except FaultPlanError as error:
            return OracleFailure("faults", f"unparseable plan '{plan}': "
                                           f"{error}")
        with tempfile.TemporaryDirectory(prefix="repro-faults-") as store_dir:
            failed = None
            try:
                with install_plan(fault_plan):
                    faulted = run_session(store_dir)
            except (IRError, InjectedFault) as error:
                failed = error          # a clean typed failure is acceptable
            except Exception as error:  # noqa: BLE001 - untyped escape IS a bug
                return OracleFailure(
                    "faults",
                    f"plan '{plan}': run under faults escaped with an "
                    f"untyped {type(error).__name__}: {error}")
            if failed is None:
                message = describe_mismatch(plan, "run under faults", faulted)
                if message is not None:
                    return OracleFailure("faults", message)

            # Recovery leg: a fault-free session over the same (possibly
            # damaged) store must always reproduce the baseline bytes.
            try:
                recovered = run_session(store_dir)
            except (IRError, InjectedFault) as error:
                return OracleFailure(
                    "faults",
                    f"plan '{plan}': fault-free recovery session over the "
                    f"damaged store failed: {type(error).__name__}: {error}")
            message = describe_mismatch(plan, "recovery session", recovered)
            if message is not None:
                return OracleFailure("faults", message)
    return None


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #

_CHECKS = {
    "pipeline": check_pipeline,
    "engines": check_engines,
    "compose": check_compose,
    "flow-cache": check_flow_cache,
    "profile": check_profile,
    "faults": check_faults,
}


def check_program(spec: ProgramSpec,
                  oracles: Iterable[str] = ORACLES) -> Optional[OracleFailure]:
    """Run ``spec`` through the selected oracles; first failure wins.

    The generator oracle always runs first — cross-checking an invalid
    program would blame the compiler for the fuzzer's own bug.
    """
    failure = check_generator(spec)
    if failure is not None:
        return failure
    for name in oracles:
        check = _CHECKS.get(name)
        if check is None:
            raise ValueError(
                f"unknown oracle {name!r}; choose from {sorted(_CHECKS)}")
        try:
            failure = check(spec)
        except Exception as error:  # noqa: BLE001 - a crash IS a finding
            failure = OracleFailure(name, f"oracle crashed: "
                                          f"{type(error).__name__}: {error}")
        if failure is not None:
            return failure
    return None


__all__ = [
    "DEFAULT_LANES",
    "FAULT_PLAN_MATRIX",
    "MAX_CYCLES",
    "ORACLES",
    "OracleFailure",
    "check_compose",
    "check_engines",
    "check_faults",
    "check_flow_cache",
    "check_generator",
    "check_pipeline",
    "check_profile",
    "check_program",
    "make_lane_inputs",
]
