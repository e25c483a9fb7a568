"""The fused-run (``vector``) engine: enter the interpreter once per design.

Every other engine drives the testbench protocol from Python cycle by cycle:
``start`` pulse, combinational settle, interface-memory sample, ``done``
poll, clock edge, memory commit — six-plus interpreter round trips per cycle
(`sim/engine/compiled.py` still pays a heap-scheduled dispatch per dirty
assignment, `batch.py` one full generated pass per cycle).  For the
statically scheduled designs HIR produces, the per-cycle program is loop-free
and *identical every cycle*, so this engine compiles the **entire run** —
prologue, steady-state window and drain — into one generated Python function
that is event-driven on *both* sides of the clock:

* the *prologue* (cycle 0, everything dirty) settles through one
  straight-line full pass over the shared per-assignment step functions;
* the *steady state* is the fused cycle loop: the compiled engine's dirty
  heap for continuous assignments inlined as code, one generated function
  per top-level clocked statement called only when a signal or memory it
  reads changed (conflict-grouped so multi-writer last-wins is exact), and
  the interface-memory protocol of
  :class:`repro.sim.testbench.InterfaceMemory` inlined with its
  read-before-write commit semantics (the contract
  ``tests/verilog/test_memory_ports.py`` pins);
* the *drain* window closes through the shared
  :func:`repro.sim.engine.window.last_drain_cycle` helper, exactly like the
  scalar and batched runners.

Like the step functions, the clocked processes are generated as shapes plus
an instance table (:mod:`repro.sim.engine.codegen`): gemm-16's 2527
processes compile as 8 function bodies.  The generated function is cached
per ``(design, interface signature)`` in the engine compile cache.  Its
code object is persisted through :mod:`repro.store` together with the run's
*simulator image*: the plain tables the program and :func:`run_design_vector`
read (assignment targets, fanout and mark lists, process sensitivity, counts,
reset values, memory depths, input widths, signal and memory names).  So a
run needs no :class:`~repro.verilog.ast.Design`: :meth:`repro.flow.Flow.
simulate` hands the engine its lazily lowered
:class:`~repro.flow.VerilogArtifact`, and a warm store serves the image and
the step functions without lowering, elaborating or levelizing the design.
Only a blob miss lowers it (:func:`_load_run`).  A stored image that is not
the program's is a corrupt blob (:func:`compile_vector_run`).

The image also records the run's static ``done`` cycle: what
:func:`steady_state_of` (the static-timing analysis of
:mod:`repro.graph.timing`) predicts for a :class:`repro.flow.VerilogArtifact`'s
optimized module, or ``None`` when the schedule has no static steady state
(a loop bound read from a runtime argument, an external callee) or the run
was built from a bare Design.  It depends only on the design key, so
whichever engine builds the blob (``vector``, or the differential engine's
vector leg) records the same value.  The prediction is a check, not a
requirement: the fused loop is event-driven, so it runs a design with no
static steady state just as exactly, and :func:`run_design_vector` verifies
the observed ``done`` cycle against a prediction whenever one exists, so a
drifting static model is a loud :class:`~repro.ir.errors.SimulationError`
that propagates to the caller rather than a silent mis-speedup.

Bit-exactness versus the interpreted reference is enforced by the
differential engine's vector leg (every ``engine="differential"`` run
re-executes through this engine and compares), the ``engines`` fuzz oracle
and ``tests/fuzz/test_vector_sweep.py``.
"""

from __future__ import annotations

import hashlib
import heapq
import marshal
from dataclasses import dataclass
from functools import cached_property
from types import CodeType
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.ir.errors import SimulationError
from repro.obs.tracer import TRACER
from repro.sim.engine import cache
from repro.sim.engine.cache import compiled_program
from repro.sim.engine.codegen import (
    ExprCompiler,
    _emit_clock_stmt,
    _ShapeTable,
    _SourceBuilder,
    instantiate,
    load_module,
)
from repro.sim.engine.levelize import LoweredDesign
from repro.sim.engine.window import SimulationTimeout, last_drain_cycle
from repro.verilog.ast import Design


class VectorUnsupported(SimulationError):
    """The run needs per-cycle Python, which one fused program cannot call.

    Raised for external behavioural models and per-cycle profiling.  No
    executor catches it: :meth:`repro.flow.Flow.simulate` checks both before
    the run and picks the compiled engine instead.
    """


def steady_state_of(module, top: str):
    """Static :class:`~repro.graph.timing.FunctionTiming` of ``@top``, or
    ``None`` when ``module`` has no such function or its schedule has no
    static steady state.

    The timing analysis splits the run: ``[0, done)`` is the prologue plus
    steady-state window, ``done`` the cycle the generated module's ``done``
    output rises, and ``(done, last_activity]`` the drain traffic.
    """
    from repro.graph.timing import TimingError, analyze_function
    from repro.hir.ops import FuncOp

    func = module.lookup(top) if module is not None else None
    if not isinstance(func, FuncOp):
        return None
    try:
        return analyze_function(module, func)
    except TimingError:
        return None


# --------------------------------------------------------------------------- #
# Interface signatures
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class _InterfaceSpec:
    """Everything the fused program bakes in about one external memory."""

    prefix: str
    depth: int
    element_mask: int
    can_read: bool
    can_write: bool


def _interface_specs(memories) -> Tuple[_InterfaceSpec, ...]:
    specs = []
    for name, (memref_type, _initial) in (memories or {}).items():
        width = memref_type.element_type.bitwidth or 32
        specs.append(_InterfaceSpec(
            prefix=name,
            depth=memref_type.num_elements,
            element_mask=(1 << width) - 1,
            can_read=memref_type.can_read,
            can_write=memref_type.can_write,
        ))
    return tuple(specs)


def vector_signature(specs: Tuple[_InterfaceSpec, ...]) -> str:
    """Store-key-safe fingerprint of the (ordered) interface shape."""
    text = ";".join(
        f"{s.prefix}:{s.depth}:{s.element_mask}:"
        f"{int(s.can_read)}{int(s.can_write)}"
        for s in specs)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# --------------------------------------------------------------------------- #
# Whole-run code generation
# --------------------------------------------------------------------------- #


def _emit_marks(builder: _SourceBuilder, indent: int, marks_expr: str,
                push: str = "dirty.append(_r)") -> None:
    """Emit the guarded dirty-marking loop over a static mark list."""
    builder.emit(indent, f"for _r in {marks_expr}:")
    builder.emit(indent + 1, "if not pending[_r]:")
    builder.emit(indent + 2, "pending[_r] = True")
    builder.emit(indent + 2, push)


def _emit_pmarks(builder: _SourceBuilder, indent: int,
                 marks_expr: str) -> None:
    """Emit the guarded dirty-marking loop for clocked processes."""
    builder.emit(indent, f"for _q in {marks_expr}:")
    builder.emit(indent + 1, "if not ppend[_q]:")
    builder.emit(indent + 2, "ppend[_q] = True")
    builder.emit(indent + 2, "pdirty.append(_q)")


def vector_run_source(lowered: LoweredDesign,
                      specs: Tuple[_InterfaceSpec, ...]) -> str:
    """Generate (without exec'ing) the fused whole-run program.

    ``_vrun(v, m, im, _steps, max_cycles, drain_cycles)`` mutates the slot
    list ``v``, the on-chip memories ``m`` and the interface-memory data
    lists ``im`` in place and returns ``(done, done_cycle, results,
    counters)``.  ``_steps`` is the compiled engine's per-assignment step
    functions: the program embeds that engine's event-driven combinational
    evaluator (dirty heap, value-compare truncation, full-pass fallback) as
    straight-line code, inlines every clocked statement and the register/
    memory/interface commit, and drives the whole start-to-done protocol in
    one loop — no per-cycle Python calls at all.  Pure function of
    ``(lowered, specs)``, so its code object persists through the compile
    cache's store tier like the per-cycle dialects.  Clocked processes are
    generated once per distinct body (see :mod:`repro.sim.engine.codegen`).
    """
    flat = lowered.flat
    slots = lowered.slots
    declared = set(flat.wires) | set(flat.regs)
    if "start" not in flat.inputs:
        # The testbench would raise on its first simulator.set("start", ...).
        raise SimulationError("'start' is not a top-level input")
    if "done" not in declared:
        # ...and on its first simulator.get("done").
        raise SimulationError("unknown signal 'done'")

    def value_of(name: str) -> str:
        """Sampled value of a protocol signal (missing signals read 0,
        mirroring InterfaceMemory._get's SimulationError-means-0 rule)."""
        if name in declared:
            return f"v[{slots.slot_of[name]}]"
        return "0"

    # One generated function per top-level clocked statement ("process").
    # The run loop is event-driven on the clocked side too: a process only
    # re-evaluates when a signal or memory it reads changed since it last
    # ran.  Skipping a clean process is exact because its re-evaluation
    # would schedule the same updates and every commit below is
    # value-compared; processes that (may) write the same target are kept in
    # one conflict group (see :func:`compile_vector_run`) so last-writer-
    # wins resolution is preserved.  Processes are generated as shapes
    # ``_sp<id>(v, m, ru, mu, ...)`` plus the ``_PROCESSES`` instance table;
    # :func:`compile_vector_run` binds the instances as ``_PROCS``.
    compiler = ExprCompiler(lowered, shaped=True)
    builder = _SourceBuilder()
    processes = _ShapeTable("_sp", "v, m, ru, mu")
    num_procs = len(flat.clocked)
    for stmt in flat.clocked:
        compiler.new_scope()
        body = _SourceBuilder()
        _emit_clock_stmt(body, compiler, lowered, stmt, 1, None, [0])
        body.emit(1, "return None")
        processes.add(body, compiler.parameters())
    processes.emit(builder, "_PROCESSES")

    builder.emit(0, "def _vrun(v, m, im, _steps, max_cycles, drain_cycles):")
    builder.emit(1, "_tg = _TARGETS")
    builder.emit(1, "_fan = _FANOUT")
    builder.emit(1, "_mk = _MARKS")
    builder.emit(1, "_ps = _PSLOT")
    builder.emit(1, "_pm = _PMEM")
    builder.emit(1, "_procs = _PROCS")
    builder.emit(1, "_hpush = _heappush")
    builder.emit(1, "_hpop = _heappop")
    builder.emit(1, f"pending = [True] * {lowered.num_assigns}")
    builder.emit(1, f"dirty = list(range({lowered.num_assigns}))")
    builder.emit(1, f"ppend = [True] * {num_procs}")
    builder.emit(1, f"pdirty = list(range({num_procs}))")
    builder.emit(1, "_ds = False")
    builder.emit(1, "_dc = 0")
    builder.emit(1, "_res = {}")
    for index in range(len(specs)):
        builder.emit(1, f"_rc{index} = 0")
        builder.emit(1, f"_wc{index} = 0")

    builder.emit(1, "for _cy in range(max_cycles):")

    # Start pulse, with the same changed-value fanout marking as
    # CompiledSimulator.set / _write_external.
    start_slot = slots.slot_of["start"]
    builder.emit(2, "_sv = 1 if _cy == 0 else 0")
    builder.emit(2, f"if v[{start_slot}] != _sv:")
    builder.emit(3, f"v[{start_slot}] = _sv")
    _emit_marks(builder, 3, f"_mk[{start_slot}]")
    _emit_pmarks(builder, 3, f"_ps[{start_slot}]")

    # Combinational settle: CompiledSimulator.eval_comb, inlined.  Dirty
    # cones re-evaluate through the shared per-assignment step functions in
    # topological (heap) order with value-compare truncation; when most of
    # the netlist is dirty (reset), one straight-line full pass is cheaper.
    full_threshold = lowered.num_assigns * 0.25
    builder.emit(2, "if dirty:")
    builder.emit(3, f"if len(dirty) >= {full_threshold!r}:")
    builder.emit(4, "_i = 0")
    builder.emit(4, "for _step in _steps:")
    builder.emit(5, "v[_tg[_i]] = _step(v, m)")
    builder.emit(5, "_i += 1")
    builder.emit(4, "for _i in dirty:")
    builder.emit(5, "pending[_i] = False")
    builder.emit(4, "dirty = []")
    # The full pass stores without value compares, so which wires changed is
    # unknown: conservatively re-arm every clocked process.
    builder.emit(4, f"ppend = [True] * {num_procs}")
    builder.emit(4, f"pdirty = list(range({num_procs}))")
    builder.emit(3, "else:")
    builder.emit(4, "_heapify(dirty)")
    builder.emit(4, "while dirty:")
    builder.emit(5, "_i = _hpop(dirty)")
    builder.emit(5, "if not pending[_i]:")
    builder.emit(6, "continue")
    builder.emit(5, "pending[_i] = False")
    builder.emit(5, "_val = _steps[_i](v, m)")
    builder.emit(5, "_t = _tg[_i]")
    builder.emit(5, "if v[_t] != _val:")
    builder.emit(6, "v[_t] = _val")
    _emit_marks(builder, 6, "_fan[_t]", push="_hpush(dirty, _r)")
    _emit_pmarks(builder, 6, "_ps[_t]")

    # Interface sample (post-settle, pre-edge), with access counters.
    for index, spec in enumerate(specs):
        builder.emit(2, f"_ad{index} = {value_of(f'{spec.prefix}_addr')}")
        if spec.can_read:
            builder.emit(2,
                         f"_re{index} = {value_of(f'{spec.prefix}_rd_en')}")
            builder.emit(2, f"if _re{index}:")
            builder.emit(3, f"_rc{index} += 1")
        if spec.can_write:
            builder.emit(2,
                         f"_we{index} = {value_of(f'{spec.prefix}_wr_en')}")
            builder.emit(2,
                         f"_wd{index} = {value_of(f'{spec.prefix}_wr_data')}")
            builder.emit(2, f"if _we{index}:")
            builder.emit(3, f"_wc{index} += 1")

    # Done poll + result capture (pre-edge, like the scalar testbench).
    builder.emit(2, f"if not _ds and v[{slots.slot_of['done']}]:")
    builder.emit(3, "_ds = True")
    builder.emit(3, "_dc = _cy")
    for name in flat.outputs:
        if name.startswith("result"):
            builder.emit(3, f"_res[{name!r}] = v[{slots.slot_of[name]}]")

    # Two-phase clocked commit.  Only dirty processes re-evaluate, in source
    # order (ascending id) so multi-writer last-wins resolution matches the
    # full sequential pass.  The commit loop is
    # CompiledSimulator._write_external unrolled: changed registers mark
    # their comb fanout (plus driver re-arm, folded into _MARKS) and the
    # clocked processes that read them.
    builder.emit(2, "ru = {}")
    builder.emit(2, "mu = []")
    builder.emit(2, "if pdirty:")
    builder.emit(3, "pdirty.sort()")
    builder.emit(3, "for _p in pdirty:")
    builder.emit(4, "ppend[_p] = False")
    builder.emit(4, "_procs[_p](v, m, ru, mu)")
    builder.emit(3, "pdirty = []")
    builder.emit(2, "for _s, _val in ru.items():")
    builder.emit(3, "if v[_s] != _val:")
    builder.emit(4, "v[_s] = _val")
    _emit_marks(builder, 4, "_mk[_s]")
    _emit_pmarks(builder, 4, "_ps[_s]")
    if lowered.mem_names:
        builder.emit(2, "for _mi, _ma, _md in mu:")
        builder.emit(3, "_mem = m[_mi]")
        builder.emit(3, "if 0 <= _ma < len(_mem):")
        builder.emit(4, "_mv = _md & _MM[_mi]")
        builder.emit(4, "if _mem[_ma] != _mv:")
        builder.emit(5, "_mem[_ma] = _mv")
        _emit_marks(builder, 5, "_MFAN[_mi]")
        _emit_pmarks(builder, 5, "_pm[_mi]")

    # Interface commit: read-before-write against the pre-edge sample.
    for index, spec in enumerate(specs):
        if spec.can_read:
            rd_data = f"{spec.prefix}_rd_data"
            builder.emit(2, f"if _re{index}:")
            if rd_data in flat.inputs:
                mask = (1 << flat.inputs[rd_data]) - 1
                rd_slot = slots.slot_of[rd_data]
                builder.emit(3, f"_val = _mr(im[{index}], _ad{index}) "
                                f"& {mask}")
                builder.emit(3, f"if v[{rd_slot}] != _val:")
                builder.emit(4, f"v[{rd_slot}] = _val")
                _emit_marks(builder, 4, f"_mk[{rd_slot}]")
                _emit_pmarks(builder, 4, f"_ps[{rd_slot}]")
            else:
                # InterfaceMemory.commit would raise through Simulator.set.
                builder.emit(3, "raise SimulationError("
                                f"\"'{rd_data}' is not a top-level input\")")
        if spec.can_write:
            builder.emit(2,
                         f"if _we{index} and 0 <= _ad{index} < {spec.depth}:")
            builder.emit(3,
                         f"im[{index}][_ad{index}] = "
                         f"_wd{index} & {spec.element_mask}")

    # Drain: shared window arithmetic with the scalar and batched runners.
    builder.emit(2, "if _ds and _cy >= _ldc(_dc, drain_cycles):")
    builder.emit(3, "break")

    counters = "".join(f"(_rc{index}, _wc{index}), "
                       for index in range(len(specs)))
    builder.emit(1, f"return _ds, _dc, _res, ({counters})")
    return builder.source()


#: The simulator-image fields :func:`compile_vector_run` binds as the fused
#: program's globals.
_BOUND = ("_TARGETS", "_FANOUT", "_MARKS", "_MFAN", "_MM", "_PSLOT", "_PMEM")

#: Every simulator-image field and its exact type (``marshal`` keeps both),
#: beside ``done``: the static done cycle, an ``int`` or ``None``.
_IMAGE_FIELDS: Dict[str, type] = {
    **{name: list for name in _BOUND}, "_MM": tuple,
    "assigns": int, "processes": int, "slots": int, "memories": int,
    "reset": list, "mem_depths": list, "inputs": dict, "names": list,
    "mem_names": list,
}

#: The image's per-assignment, per-slot and per-memory tables, by count.
_IMAGE_LENGTHS = (
    ("assigns", ("_TARGETS",)),
    ("slots", ("_FANOUT", "_MARKS", "_PSLOT", "reset")),
    ("memories", ("_MFAN", "_MM", "_PMEM", "mem_depths", "mem_names")),
)


def _image_of(lowered: LoweredDesign) -> Dict[str, Any]:
    """The simulator image of ``lowered``: every table the fused run and
    :func:`run_design_vector` read, as plain ``marshal``-able values.

    The tables the program indexes at run time are assignment targets,
    per-slot fanout, the per-slot fanout-plus-driver marks lowering built,
    per-memory fanout and masks, and clocked-process sensitivity.  Beside
    them sit the counts, the slot reset values, the memory depths, the
    top-level input widths and the declared signal and memory names.
    Declared signals are the leading slots
    (:func:`~repro.sim.engine.levelize.lower_design` allocates wires and
    registers first), so their names alone map names to slots.
    """
    # Clocked-process sensitivity: slot / on-chip memory -> the processes
    # that read it.  Processes that (may) write the same register or memory
    # form one conflict group and are always marked together — re-running a
    # subset would break the full pass's last-writer-wins resolution (a
    # skipped earlier writer's value must not be resurrected by a dirty
    # later writer falling silent, and vice versa).
    flat = lowered.flat
    num_procs = len(flat.clocked)
    parent = list(range(num_procs))

    def _find(pid: int) -> int:
        while parent[pid] != pid:
            parent[pid] = parent[parent[pid]]
            pid = parent[pid]
        return pid

    writer_of: Dict[str, int] = {}
    for pid, stmt in enumerate(flat.clocked):
        for name in stmt.writes():
            other = writer_of.setdefault(name, pid)
            if other != pid:
                parent[_find(pid)] = _find(other)
    members: Dict[int, List[int]] = {}
    for pid in range(num_procs):
        members.setdefault(_find(pid), []).append(pid)
    group_of = [tuple(members[_find(pid)]) for pid in range(num_procs)]

    pslot = [set() for _ in lowered.slots.names]
    pmem = [set() for _ in lowered.mem_depths]
    slot_of = lowered.slots.slot_of
    for pid, stmt in enumerate(flat.clocked):
        for name in set(stmt.reads()):
            if name in lowered.mem_of:
                pmem[lowered.mem_of[name]].update(group_of[pid])
            else:
                slot = slot_of.get(name)
                if slot is not None:
                    pslot[slot].update(group_of[pid])

    declared = len(set(flat.wires) | set(flat.regs))
    return {
        "_TARGETS": lowered.assign_targets,
        "_FANOUT": lowered.slot_fanout,
        "_MARKS": lowered.slot_marks,
        "_MFAN": lowered.mem_fanout,
        "_MM": tuple((1 << width) - 1 for width in lowered.mem_widths),
        "_PSLOT": [tuple(sorted(pids)) for pids in pslot],
        "_PMEM": [tuple(sorted(pids)) for pids in pmem],
        "assigns": lowered.num_assigns,
        "processes": num_procs,
        "slots": len(lowered.slots.names),
        "memories": len(lowered.mem_names),
        "reset": lowered.slots.reset_values,
        "mem_depths": lowered.mem_depths,
        "inputs": dict(flat.inputs),
        "names": lowered.slots.names[:declared],
        "mem_names": lowered.mem_names,
    }


def _check_image(image: Any) -> None:
    """Raise :class:`ValueError` unless ``image`` has every field, each of
    its type, and tables as long as the counts say."""
    if not isinstance(image, dict):
        raise ValueError(f"simulator image is a {type(image).__name__}, "
                         "not a dict")
    for name, kind in _IMAGE_FIELDS.items():
        if type(image.get(name)) is not kind:
            raise ValueError(f"simulator image field {name!r} is missing or "
                             f"not a {kind.__name__}")
    for count, tables in _IMAGE_LENGTHS:
        for table in tables:
            if len(image[table]) != image[count]:
                raise ValueError(
                    f"simulator image table {table!r} has "
                    f"{len(image[table])} entries for {image[count]} {count}")
    if len(image["names"]) > image["slots"]:
        raise ValueError("simulator image names more signals than slots")
    if "done" not in image or not (image["done"] is None
                                   or type(image["done"]) is int):
        raise ValueError("simulator image field 'done' is missing or neither "
                         "an int nor None")


def compile_vector_run(tables: Union[Dict[str, Any], LoweredDesign],
                       source: Union[str, CodeType],
                       done: Optional[int] = None
                       ) -> Tuple[Tuple[CodeType, Dict[str, Any]],
                                  Tuple[Dict[str, Any], Callable]]:
    """Compile a :func:`vector_run_source` text (or exec its code object)
    into ``((code, image), (image, _vrun))``.

    ``tables`` is the program's simulator image or, on a miss, the
    :class:`~repro.sim.engine.levelize.LoweredDesign` the image is built
    from (:func:`_image_of`), recording ``done`` as its static done cycle.
    The image's static tables are bound as the
    program's globals, and so are the clocked processes, instantiated from
    the program's shapes and instance table
    (:func:`~repro.sim.engine.codegen.instantiate`), so the code itself
    stays a pure function of the design.  The store keeps ``(code, image)``,
    which runs without a Design.  An image with a missing or mistyped field,
    tables whose lengths disagree with its counts, a ``done`` that is
    neither an ``int`` nor ``None``, or a process count other than the
    instance table's raises :class:`ValueError`.
    """
    image = (tables if isinstance(tables, dict)
             else dict(_image_of(tables), done=done))
    _check_image(image)
    code, namespace = load_module(
        source,
        _ldc=last_drain_cycle,
        _heapify=heapq.heapify,
        _heappush=heapq.heappush,
        _heappop=heapq.heappop,
        **{name: image[name] for name in _BOUND},
    )
    namespace["_PROCS"] = tuple(instantiate(namespace, "_PROCESSES", "_sp",
                                            4, image["processes"]))
    return (code, image), (image, namespace["_vrun"])


def _stored_run(payload: bytes) -> Tuple[Dict[str, Any], CodeType]:
    """The :func:`compile_vector_run` arguments in a stored payload: a
    marshal'd ``(code, image)`` pair; anything else is a
    :class:`ValueError`."""
    stored = marshal.loads(payload)
    if not (isinstance(stored, tuple) and len(stored) == 2
            and isinstance(stored[0], CodeType)):
        raise ValueError("stored fused run is not a (code, image) pair")
    code, image = stored
    return image, code


@dataclass
class _FusedRun:
    """One loaded fused run: its simulator image, ``_vrun`` and the step
    functions ``_vrun`` calls."""

    image: Dict[str, Any]
    run: Callable
    steps: List[Callable]

    @cached_property
    def slot_of(self) -> Dict[str, int]:
        """Declared signal name -> slot."""
        return {name: slot for slot, name in enumerate(self.image["names"])}

    @cached_property
    def mem_of(self) -> Dict[str, int]:
        """On-chip memory name -> index."""
        return {name: index
                for index, name in enumerate(self.image["mem_names"])}


def _static_done(source: Any) -> Optional[int]:
    """The static done cycle of ``source``'s top in its optimized module,
    or ``None``.

    ``source`` is a :class:`repro.flow.VerilogArtifact`, whose optimized
    module :func:`steady_state_of` analyzes, or a bare Design, which
    carries no HIR to analyze.
    """
    if isinstance(source, Design):
        return None
    timing = steady_state_of(source.module, source.top)
    return None if timing is None else timing.done


def _load_run(source: Any, specs: Tuple[_InterfaceSpec, ...],
              signature: str) -> _FusedRun:
    """Load the fused run of ``source`` through the store, lowering only
    when a blob misses.

    The run blob comes first: its image gives the step count the
    ``comb-scalar`` blob is loaded with, so a warm store runs without a
    Design.  A miss lowers the design and analyzes its static steady state
    for the image.  Once a miss has lowered the design, the step functions
    live on its cached artifacts, shared with the compiled engine.  The
    scalar clock program is never built.
    """
    artifacts = None

    def lowered() -> LoweredDesign:
        nonlocal artifacts
        if artifacts is None:
            # A VerilogArtifact lowers its design on first access.
            design = source if isinstance(source, Design) else source.design
            artifacts = cache.base_artifacts(design, None)
        return artifacts.lowered

    image, run = compiled_program(
        f"run-vector-{signature}",
        lambda: (lowered(), vector_run_source(lowered(), specs),
                 _static_done(source)),
        lambda program: compile_vector_run(*program), unpack=_stored_run)
    steps = None if artifacts is None else artifacts.step_fns
    if steps is None:
        steps = compiled_program(
            "comb-scalar", lambda: cache.comb_source(lowered()),
            lambda program: cache.compile_comb(image["assigns"], program))
        if artifacts is not None:
            artifacts.step_fns = steps
    return _FusedRun(image, run, steps)


def _cached_run(source: Any, memories) -> _FusedRun:
    """The fused run of ``source`` (a Design, or a lazily lowered
    :class:`repro.flow.VerilogArtifact`) for this interface signature,
    through the engine compile cache (:func:`_load_run` on a miss)."""
    specs = _interface_specs(memories)
    signature = vector_signature(specs)
    return cache.memoized(source, f"run-vector-{signature}",
                          lambda: _load_run(source, specs, signature))


# --------------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------------- #


class VectorState:
    """Post-run state view (the vector engine has no per-cycle surface).

    Exposes the read side of the standard simulator API — ``get``,
    ``memory``, ``find_memories`` — over the final slot values and on-chip
    memories of a fused run, naming them from its simulator image.
    """

    def __init__(self, fused: _FusedRun, values: List[int],
                 mems: List[List[int]]) -> None:
        self._fused = fused
        self._values = values
        self._mems = mems

    def get(self, name: str) -> int:
        slot = self._fused.slot_of.get(name)
        if slot is None:
            raise SimulationError(f"unknown signal '{name}'")
        return self._values[slot]

    def memory(self, name: str) -> List[int]:
        return self._mems[self._fused.mem_of[name]]

    def find_memories(self, substring: str) -> List[str]:
        return sorted(name for name in self._fused.image["mem_names"]
                      if substring in name)


def run_design_vector(
    design: Any,
    memories=None,
    scalar_inputs=None,
    external_models=None,
    max_cycles: int = 100000,
    drain_cycles: int = 4,
    profiler=None,
):
    """Run a design start-to-done as one fused generated program.

    Same contract as :func:`repro.sim.testbench.run_design_impl`, except the
    run either finishes (``done=True``) or raises
    :class:`~repro.sim.engine.window.SimulationTimeout` — and
    :class:`VectorUnsupported` when the design needs per-cycle Python
    (external models, profiling).  The observed ``done`` cycle is verified
    against the static done cycle the simulator image records, when it
    records one.  ``design`` is a
    :class:`~repro.verilog.ast.Design` or a :class:`repro.flow.
    VerilogArtifact`, whose design is lowered only if a store blob misses.
    """
    from repro.sim.testbench import InterfaceMemory, SimulationRun

    if external_models:
        raise VectorUnsupported(
            "external behavioural models need per-cycle Python callbacks; "
            "the vector engine fuses the whole run (use the compiled engine)")
    if profiler is not None:
        raise VectorUnsupported(
            "per-cycle profiling is not observable from a fused run; "
            "profile with the compiled engine")

    fused = _cached_run(design, memories)
    image = fused.image
    values = list(image["reset"])
    mems = [[0] * depth for depth in image["mem_depths"]]
    interface_memories: Dict[str, InterfaceMemory] = {}
    for name, (memref_type, initial) in (memories or {}).items():
        interface_memories[name] = InterfaceMemory(name, memref_type, initial)
    inputs = image["inputs"]
    for name, value in (scalar_inputs or {}).items():
        if name not in inputs:
            raise SimulationError(f"'{name}' is not a top-level input")
        mask = (1 << inputs[name]) - 1
        values[fused.slot_of[name]] = int(value) & mask

    data = [memory.data for memory in interface_memories.values()]
    with TRACER.span("sim.run", cat="sim", engine="vector") as sim_span:
        done, done_cycle, results, counters = fused.run(
            values, mems, data, fused.steps, max_cycles, drain_cycles)
        sim_span.set(cycles=done_cycle + 1 if done else max_cycles, done=done)
    TRACER.count("sim.vector_runs")
    if not done:
        raise SimulationTimeout(
            f"design never asserted done within {max_cycles} cycles "
            "(vector engine)", undone_lanes=(0,), max_cycles=max_cycles)
    predicted = image["done"]
    if predicted is not None and done_cycle != predicted:
        raise SimulationError(
            f"static steady-state timing predicted done at cycle "
            f"{predicted} but simulation observed cycle {done_cycle}; "
            "the timing model and the generated design disagree")
    for memory, (reads, writes) in zip(interface_memories.values(), counters):
        memory.reads = reads
        memory.writes = writes
    return SimulationRun(
        cycles=done_cycle + 1,
        done=True,
        results=results,
        memories=interface_memories,
        simulator=VectorState(fused, values, mems),
        engine="vector",
    )


__all__ = [
    "VectorState",
    "VectorUnsupported",
    "compile_vector_run",
    "run_design_vector",
    "steady_state_of",
    "vector_run_source",
    "vector_signature",
]
