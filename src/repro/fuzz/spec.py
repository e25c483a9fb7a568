"""Declarative specs for randomly generated HIR programs.

A :class:`ProgramSpec` is a small, JSON-round-trippable description of one
fuzz program: a perfectly nested ``hir.for`` loop nest with randomized
extents, initiation interval and iteration offsets, a set of read-port input
memrefs and write-port output memrefs, and a DAG of compute ops
(:class:`OpSpec`) evaluated in the innermost loop body.

The spec — not the materialized module — is the unit the fuzzer works on:
the generator emits specs, the shrinker edits specs, reproducer scripts
embed specs, and :func:`materialize` deterministically turns a spec into a
schedule-valid HIR module.  Determinism is the load-bearing property: the
same spec always prints to the same IR text, so cross-pipeline byte
comparisons and seed replay are meaningful.

Value references inside a spec are strings:

``"iv"``
    the innermost loop's induction variable (valid at offset 0),
``"in<k>"``
    the value read from input interface ``A<k>`` (valid one cycle after the
    read issues),
``"op<k>"``
    the result of ``ops[k]``,
``"c:<v>"``
    the i32 constant ``v`` (timeless — usable at any cycle).

The materializer keeps every value's validity offset (relative to the
innermost iteration's time variable) and inserts ``hir.delay`` ops so that
all operands of a combinational op — and the address/data operands of every
memory access — arrive in exactly the same cycle.  This is what makes every
generated program pass the schedule verifier by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.ir.types import I32, IntegerType
from repro.ir.values import Value
from repro.hir.build import DesignBuilder, FuncBuilder
from repro.hir.ops import CMP_PREDICATES
from repro.hir.types import MemrefType

#: Spec schema version, embedded in reproducer scripts.
SPEC_VERSION = 1

#: Two-operand combinational op kinds (operands ``(a, b)``).
BINARY_KINDS = ("add", "sub", "mult", "and", "or", "xor")
#: Shift kinds (operands ``(a,)``, params ``(amount,)``).
SHIFT_KINDS = ("shl", "shr")
#: All op kinds a spec may contain.
OP_KINDS = BINARY_KINDS + SHIFT_KINDS + ("cmpsel", "castpair", "delay")


class SpecError(ValueError):
    """A malformed or unmaterializable program spec."""


@dataclass(frozen=True)
class OpSpec:
    """One compute op in the innermost loop body.

    ``kind`` is one of :data:`OP_KINDS`; ``operands`` are value references;
    ``params`` carry compile-time integers (shift amount, cast width, delay
    cycles); ``predicate`` is only used by ``cmpsel``.
    """

    kind: str
    operands: Tuple[str, ...]
    params: Tuple[int, ...] = ()
    predicate: str = ""

    def to_dict(self) -> Dict:
        data: Dict = {"kind": self.kind, "operands": list(self.operands)}
        if self.params:
            data["params"] = list(self.params)
        if self.predicate:
            data["predicate"] = self.predicate
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "OpSpec":
        return cls(
            kind=data["kind"],
            operands=tuple(data["operands"]),
            params=tuple(data.get("params", ())),
            predicate=data.get("predicate", ""),
        )


@dataclass(frozen=True)
class WriteSpec:
    """One ``hir.mem_write`` to output interface ``O<output>``.

    ``index_perm`` permutes the loop nest's induction variables into the
    output's address (``(1, 0)`` writes the transpose); the output memref's
    shape is permuted to match.
    """

    output: int
    value: str
    index_perm: Tuple[int, ...]

    def to_dict(self) -> Dict:
        return {"output": self.output, "value": self.value,
                "index_perm": list(self.index_perm)}

    @classmethod
    def from_dict(cls, data: Dict) -> "WriteSpec":
        return cls(output=data["output"], value=data["value"],
                   index_perm=tuple(data["index_perm"]))


@dataclass(frozen=True)
class ProgramSpec:
    """A complete fuzz program: loop nest + interfaces + compute DAG."""

    seed: int
    #: Loop extents, outermost first; ``len(sizes)`` is the nest depth and
    #: the rank of every interface memref.
    sizes: Tuple[int, ...]
    #: Initiation interval of the innermost loop (its ``hir.yield`` offset).
    ii: int
    n_inputs: int
    n_outputs: int
    ops: Tuple[OpSpec, ...]
    writes: Tuple[WriteSpec, ...]
    #: Per-loop first-iteration offsets (outermost first).
    iter_offsets: Tuple[int, ...] = ()
    #: Cycle (relative to the iteration time) each input read issues at.
    read_offsets: Tuple[int, ...] = ()
    #: Port kind of each output interface ("w" or "rw").
    output_ports: Tuple[str, ...] = ()
    version: int = SPEC_VERSION

    def __post_init__(self) -> None:
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise SpecError(f"bad loop extents {self.sizes}")
        if self.ii < 1:
            raise SpecError(f"initiation interval must be >= 1, got {self.ii}")
        if self.n_inputs < 1 or self.n_outputs < 1:
            raise SpecError("need at least one input and one output")
        if len(self.writes) != self.n_outputs or (
                {write.output for write in self.writes}
                != set(range(self.n_outputs))):
            raise SpecError("need exactly one write per output")
        if self.iter_offsets and len(self.iter_offsets) != len(self.sizes):
            raise SpecError("iter_offsets must match the loop nest depth")
        if self.read_offsets and len(self.read_offsets) != self.n_inputs:
            raise SpecError("read_offsets must have one entry per input")
        if self.output_ports and len(self.output_ports) != self.n_outputs:
            raise SpecError("output_ports must have one entry per output")
        for op in self.ops:
            if op.kind not in OP_KINDS:
                raise SpecError(f"unknown op kind {op.kind!r}")
            if op.kind == "cmpsel" and op.predicate not in CMP_PREDICATES:
                raise SpecError(f"unknown predicate {op.predicate!r}")
        for write in self.writes:
            if tuple(sorted(write.index_perm)) != tuple(range(len(self.sizes))):
                raise SpecError(
                    f"index_perm {write.index_perm} is not a permutation of "
                    f"the {len(self.sizes)} loop dimensions"
                )

    # -- defaults for optional fields ---------------------------------------
    def loop_iter_offsets(self) -> Tuple[int, ...]:
        return self.iter_offsets or (1,) * len(self.sizes)

    def input_read_offsets(self) -> Tuple[int, ...]:
        return self.read_offsets or (0,) * self.n_inputs

    def ports_of_outputs(self) -> Tuple[str, ...]:
        return self.output_ports or ("w",) * self.n_outputs

    @property
    def rank(self) -> int:
        return len(self.sizes)

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "version": self.version,
            "seed": self.seed,
            "sizes": list(self.sizes),
            "ii": self.ii,
            "n_inputs": self.n_inputs,
            "n_outputs": self.n_outputs,
            "iter_offsets": list(self.loop_iter_offsets()),
            "read_offsets": list(self.input_read_offsets()),
            "output_ports": list(self.ports_of_outputs()),
            "ops": [op.to_dict() for op in self.ops],
            "writes": [write.to_dict() for write in self.writes],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ProgramSpec":
        return cls(
            seed=data["seed"],
            sizes=tuple(data["sizes"]),
            ii=data["ii"],
            n_inputs=data["n_inputs"],
            n_outputs=data["n_outputs"],
            ops=tuple(OpSpec.from_dict(op) for op in data["ops"]),
            writes=tuple(WriteSpec.from_dict(w) for w in data["writes"]),
            iter_offsets=tuple(data.get("iter_offsets", ())),
            read_offsets=tuple(data.get("read_offsets", ())),
            output_ports=tuple(data.get("output_ports", ())),
            version=data.get("version", SPEC_VERSION),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ProgramSpec":
        return cls.from_dict(json.loads(text))

    # -- introspection -------------------------------------------------------
    def referenced(self) -> set:
        """Every value reference the writes depend on, transitively."""
        needed = {write.value for write in self.writes}
        for index in range(len(self.ops) - 1, -1, -1):
            if f"op{index}" in needed:
                needed.update(self.ops[index].operands)
        return needed


def is_const_ref(ref: str) -> bool:
    return ref.startswith("c:")


def const_ref_value(ref: str) -> int:
    return int(ref[2:])


def result_offset(kind: str, operand_offsets: Sequence[Optional[int]],
                  params: Sequence[int]) -> Optional[int]:
    """Validity offset of an op's result given its operands' offsets.

    ``None`` means timeless (every operand was a constant); otherwise the
    result is valid exactly at the returned offset — operands are aligned
    there with ``hir.delay`` at materialization time.
    """
    timed = [offset for offset in operand_offsets if offset is not None]
    if kind == "delay":
        if not timed:
            raise SpecError("hir.delay needs a timed operand")
        return timed[0] + params[0]
    if not timed:
        return None
    return max(timed)


@dataclass
class MaterializedProgram:
    """A spec turned into IR plus everything the oracles need to drive it."""

    spec: ProgramSpec
    design: DesignBuilder
    top: str
    interfaces: Dict[str, MemrefType]
    input_names: List[str]
    output_names: List[str]

    @property
    def module(self):
        return self.design.module


class _BodyValues:
    """Value environment of the innermost loop body, with delay-alignment."""

    def __init__(self, func: FuncBuilder, inner_time: Value) -> None:
        self._func = func
        self._inner_time = inner_time
        self._values: Dict[str, Value] = {}
        self._offsets: Dict[str, Optional[int]] = {}
        self._aligned: Dict[Tuple[str, int], Value] = {}

    def define(self, ref: str, value: Value, offset: Optional[int]) -> None:
        self._values[ref] = value
        self._offsets[ref] = offset

    def offset_of(self, ref: str) -> Optional[int]:
        if is_const_ref(ref):
            return None
        if ref not in self._offsets:
            raise SpecError(f"undefined value reference {ref!r}")
        return self._offsets[ref]

    def raw(self, ref: str) -> Value:
        if is_const_ref(ref):
            return self._func.constant(const_ref_value(ref), I32)
        if ref not in self._values:
            raise SpecError(f"undefined value reference {ref!r}")
        return self._values[ref]

    def at(self, ref: str, target: Optional[int]) -> Value:
        """``ref``'s value, delayed so it is valid exactly at ``target``."""
        value = self.raw(ref)
        offset = self.offset_of(ref)
        if offset is None or target is None or offset == target:
            return value
        if offset > target:
            raise SpecError(
                f"cannot rewind {ref!r} from offset {offset} to {target}"
            )
        key = (ref, target)
        if key not in self._aligned:
            self._aligned[key] = self._func.delay(
                value, target - offset, time=self._inner_time
            )
        return self._aligned[key]


def _output_type(spec: ProgramSpec, write: WriteSpec, port: str) -> MemrefType:
    shape = tuple(spec.sizes[dim] for dim in write.index_perm)
    return MemrefType(shape, I32, port)


def materialize(spec: ProgramSpec, name: Optional[str] = None,
                runtime_bound: bool = False) -> MaterializedProgram:
    """Deterministically build the HIR module described by ``spec``.

    ``runtime_bound`` builds the spec's runtime-bound twin: the outermost
    loop runs to the stable ``i32`` argument ``n`` (the last argument)
    instead of its extent, so the schedule has no static steady state.  The
    interfaces keep their shapes; callers pass ``n`` (at most the extent)
    as a scalar input.
    """
    design = DesignBuilder(name or f"fuzz_{spec.seed}")
    input_names = [f"A{k}" for k in range(spec.n_inputs)]
    output_names = [f"O{k}" for k in range(spec.n_outputs)]
    ports = spec.ports_of_outputs()
    interfaces: Dict[str, MemrefType] = {
        name_: MemrefType(spec.sizes, I32, "r") for name_ in input_names
    }
    for write in spec.writes:
        interfaces[output_names[write.output]] = _output_type(
            spec, write, ports[write.output]
        )
    args = [(name_, interfaces[name_])
            for name_ in input_names + output_names]
    if runtime_bound:
        args.append(("n", I32))
    iter_offsets = spec.loop_iter_offsets()
    read_offsets = spec.input_read_offsets()

    with design.func("fuzz_top", args,
                     stable_args=("n",) if runtime_bound else None) as func:
        bounds = list(spec.sizes)
        if runtime_bound:
            bounds[0] = func.arg("n")
        _build_nest(spec, func, bounds, iter_offsets, read_offsets,
                    input_names, output_names, outer_ivs=[], depth=0,
                    time=func.time)
        func.return_()
    return MaterializedProgram(
        spec=spec,
        design=design,
        top="fuzz_top",
        interfaces=interfaces,
        input_names=input_names,
        output_names=output_names,
    )


def _build_nest(spec: ProgramSpec, func: FuncBuilder,
                bounds: Sequence[Union[int, Value]],
                iter_offsets: Tuple[int, ...], read_offsets: Tuple[int, ...],
                input_names: List[str], output_names: List[str],
                outer_ivs: List[Value], depth: int, time: Value) -> Value:
    innermost = depth == spec.rank - 1
    with func.for_loop(0, bounds[depth], 1, time=time,
                       iter_offset=iter_offsets[depth],
                       iv_name=f"i{depth}") as loop:
        if innermost:
            _build_body(spec, func, read_offsets, input_names, output_names,
                        outer_ivs + [loop.iv], loop.time)
            func.yield_(loop.time, offset=spec.ii)
        else:
            inner_done = _build_nest(spec, func, bounds, iter_offsets,
                                     read_offsets, input_names, output_names,
                                     outer_ivs + [loop.iv], depth + 1,
                                     loop.time)
            func.yield_(inner_done, offset=1)
    return loop.done


def _build_body(spec: ProgramSpec, func: FuncBuilder,
                read_offsets: Tuple[int, ...],
                input_names: List[str], output_names: List[str],
                ivs: List[Value], inner_time: Value) -> None:
    env = _BodyValues(func, inner_time)
    env.define("iv", ivs[-1], 0)

    def address(perm: Sequence[int], at_offset: int) -> List[Value]:
        indices: List[Value] = []
        for dim in perm:
            if dim == spec.rank - 1:
                # The innermost induction variable is a pipeline wire: delay
                # it so the address arrives exactly when the access issues.
                indices.append(env.at("iv", at_offset))
            else:
                # Enclosing-loop induction variables are stable for the whole
                # inner loop execution and may be consumed at any cycle.
                indices.append(ivs[dim])
        return indices

    for index, name in enumerate(input_names):
        offset = read_offsets[index]
        value = func.mem_read(func.arg(name), address(range(spec.rank), offset),
                              time=inner_time, offset=offset)
        env.define(f"in{index}", value, offset + 1)

    for index, op in enumerate(spec.ops):
        _build_op(func, env, inner_time, f"op{index}", op)

    for write in spec.writes:
        offset = env.offset_of(write.value)
        # Timeless (constant) data still needs a concrete write cycle.
        at_offset = 1 if offset is None else offset
        func.mem_write(env.at(write.value, at_offset),
                       func.arg(output_names[write.output]),
                       address(write.index_perm, at_offset),
                       time=inner_time, offset=at_offset)


def _build_op(func: FuncBuilder, env: _BodyValues, inner_time: Value,
              ref: str, op: OpSpec) -> None:
    offsets = [env.offset_of(operand) for operand in op.operands]
    target = result_offset(op.kind, offsets, op.params)
    if op.kind in BINARY_KINDS:
        build = {"add": func.add, "sub": func.sub, "mult": func.mult,
                 "and": func.and_, "or": func.or_, "xor": func.xor}[op.kind]
        lhs, rhs = (env.at(operand, target) for operand in op.operands)
        value = build(lhs, rhs)
    elif op.kind in SHIFT_KINDS:
        build = func.shl if op.kind == "shl" else func.shr
        value = build(env.at(op.operands[0], target), op.params[0])
    elif op.kind == "cmpsel":
        a, b, true_value, false_value = (
            env.at(operand, target) for operand in op.operands
        )
        value = func.select(func.cmp(op.predicate, a, b),
                            true_value, false_value)
    elif op.kind == "castpair":
        width = op.params[0]
        narrowed = func.trunc(env.at(op.operands[0], target),
                              IntegerType(width))
        value = func.ext(narrowed, I32, signed=True)
    elif op.kind == "delay":
        value = func.delay(env.raw(op.operands[0]), op.params[0],
                           time=inner_time)
    else:  # pragma: no cover - guarded by ProgramSpec.__post_init__
        raise SpecError(f"unknown op kind {op.kind!r}")
    env.define(ref, value, target)


__all__ = [
    "BINARY_KINDS",
    "MaterializedProgram",
    "OpSpec",
    "OP_KINDS",
    "ProgramSpec",
    "SHIFT_KINDS",
    "SPEC_VERSION",
    "SpecError",
    "WriteSpec",
    "const_ref_value",
    "is_const_ref",
    "materialize",
    "result_offset",
]
