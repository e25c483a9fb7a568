"""Multi-kernel dataflow composition: a graph of kernels, one design.

A :class:`DesignGraph` links kernel instances (nodes) through on-chip stream
buffers (edges) and lowers the whole thing to a single multi-module Verilog
design:

* every node's ``hir.func`` is cloned into one combined module under a
  unique symbol (so the same kernel can appear twice);
* every edge becomes an ``hir.alloc``'ed block-RAM buffer in a generated
  top-level wrapper function — the producer is handed the buffer's write
  port, the consumer its read port, exactly the flow-through buffering the
  ``fifo`` kernel demonstrates at the interface level;
* every node becomes one ``hir.call`` in the wrapper, scheduled by a static
  longest-path pass over :mod:`repro.graph.timing`: a node starts only after
  every producer feeding it has gone quiet (done *and* trailing writes
  committed), so the composition is correct by construction — no handshake
  hardware, the deterministic task-level parallelism of Section 5.3.
  Independent branches overlap.

Unbound node inputs surface as interfaces of the wrapper (graph inputs);
unbound node outputs surface as graph outputs.  :meth:`DesignGraph.build`
returns a :class:`GraphArtifacts` — a :class:`~repro.kernels.base.
KernelArtifacts` — so a composed design drops into everything a single
kernel works with: ``Flow``, the CLI, batched sweeps and the evaluation
harness.  Edges are *reshape-compatible*: producer and consumer shapes may
differ as long as the element count matches, because fully packed buffers
address row-major linearly on both sides.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.ir.errors import IRError
from repro.ir.module import ModuleOp
from repro.ir.printer import module_fingerprint
from repro.ir.types import I32
from repro.hir.build import DesignBuilder
from repro.hir.ops import FuncOp
from repro.hir.types import MemrefType
from repro.kernels.base import KernelArtifacts
from repro.graph.timing import FunctionTiming, analyze_function

#: Idle cycles inserted between a producer going quiet and a consumer
#: starting (covers the edge buffer's write-to-read turnaround).
EDGE_MARGIN = 1


class GraphError(IRError):
    """An ill-formed dataflow graph (bad port, fan-out, cycle, shape...)."""


@dataclass
class GraphNode:
    """One kernel instance inside a :class:`DesignGraph`."""

    name: str
    artifacts: KernelArtifacts
    #: Scalar argument bindings materialised as constants at the call site.
    scalars: Dict[str, int] = field(default_factory=dict)

    @property
    def func_name(self) -> str:
        """Symbol the node's function is cloned under in the composed module."""
        return self.name

    def top_func(self) -> FuncOp:
        func = self.artifacts.module.lookup(self.artifacts.top)
        if not isinstance(func, FuncOp):
            raise GraphError(
                f"node '{self.name}': top function @{self.artifacts.top} "
                "not found in its module"
            )
        return func

    def interface(self, port: str) -> MemrefType:
        memref_type = self.artifacts.interfaces.get(port)
        if memref_type is None:
            raise GraphError(
                f"node '{self.name}' has no interface {port!r}; it exposes "
                f"{sorted(self.artifacts.interfaces)}"
            )
        return memref_type


@dataclass(frozen=True)
class GraphEdge:
    """A stream buffer from one node's output to another node's input."""

    producer: str
    producer_port: str
    consumer: str
    consumer_port: str

    @property
    def buffer_name(self) -> str:
        return f"{self.producer}_{self.producer_port}__{self.consumer}_{self.consumer_port}"


@dataclass(frozen=True)
class NodeSchedule:
    """When one node runs inside the composed design."""

    name: str
    start: int
    timing: FunctionTiming

    @property
    def quiet(self) -> int:
        return self.start + self.timing.quiet


class GraphArtifacts(KernelArtifacts):
    """KernelArtifacts of a composed design, plus its graph provenance."""

    def __init__(self, graph: "DesignGraph",
                 schedule: Dict[str, NodeSchedule], **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.graph = graph
        self.schedule = schedule

    def describe_schedule(self) -> str:
        """One line per node: start cycle, static done/quiet cycles."""
        lines = [f"{'node':<24} {'start':>7} {'done':>7} {'quiet':>7}"]
        for entry in sorted(self.schedule.values(), key=lambda s: s.start):
            lines.append(f"{entry.name:<24} {entry.start:>7} "
                         f"{entry.start + entry.timing.done:>7} "
                         f"{entry.quiet:>7}")
        return "\n".join(lines)


class DesignGraph:
    """A DAG of kernel nodes connected by stream-buffer edges."""

    def __init__(self, name: str = "design_graph") -> None:
        self.name = name
        self.nodes: Dict[str, GraphNode] = {}
        self.edges: List[GraphEdge] = []
        #: Optional renames for exposed interfaces: (node, port) -> name.
        self._exposed: Dict[Tuple[str, str], str] = {}

    # -- construction --------------------------------------------------------
    def add_kernel(self, kernel: str, name: Optional[str] = None, *,
                   scalars: Optional[Mapping[str, int]] = None,
                   **parameters: Any) -> GraphNode:
        """Instantiate a registered kernel as a node (``name`` defaults to
        the kernel name, uniquified)."""
        from repro.kernels import build_kernel
        return self.add_node(build_kernel(kernel, **parameters), name=name,
                             scalars=scalars)

    def add_node(self, artifacts: KernelArtifacts, name: Optional[str] = None,
                 *, scalars: Optional[Mapping[str, int]] = None) -> GraphNode:
        """Add a node from prebuilt :class:`KernelArtifacts`."""
        base = name or artifacts.name or artifacts.top
        candidate = base
        suffix = 1
        while candidate in self.nodes:
            suffix += 1
            candidate = f"{base}{suffix}"
        bound = dict(artifacts.scalar_args)
        bound.update(scalars or {})
        node = GraphNode(name=candidate, artifacts=artifacts, scalars=bound)
        func = node.top_func()  # raises early on a top-less module
        for arg, arg_name in zip(func.arguments, func.arg_names):
            if not isinstance(arg.type, MemrefType) and arg_name not in bound:
                raise GraphError(
                    f"node '{candidate}': scalar argument '{arg_name}' has no "
                    "binding; pass scalars={...} (composed calls materialise "
                    "scalars as constants)"
                )
        self.nodes[candidate] = node
        return node

    def connect(self, producer: Any, producer_port: str,
                consumer: Any, consumer_port: str) -> GraphEdge:
        """Stream ``producer.producer_port`` into ``consumer.consumer_port``."""
        producer_node = self._node(producer)
        consumer_node = self._node(consumer)
        out_type = producer_node.interface(producer_port)
        in_type = consumer_node.interface(consumer_port)
        if not out_type.can_write:
            raise GraphError(
                f"'{producer_node.name}.{producer_port}' is not an output "
                f"(port kind {out_type.port!r})"
            )
        if not in_type.can_read:
            raise GraphError(
                f"'{consumer_node.name}.{consumer_port}' is not an input "
                f"(port kind {in_type.port!r})"
            )
        self._check_compatible(producer_node, producer_port, out_type,
                               consumer_node, consumer_port, in_type)
        edge = GraphEdge(producer_node.name, producer_port,
                         consumer_node.name, consumer_port)
        for existing in self.edges:
            if (existing.producer, existing.producer_port) == (
                    edge.producer, edge.producer_port):
                raise GraphError(
                    f"output '{edge.producer}.{edge.producer_port}' already "
                    "feeds an edge; each memref port drives exactly one "
                    "consumer (insert a copy node such as 'fifo' to fan out)"
                )
            if (existing.consumer, existing.consumer_port) == (
                    edge.consumer, edge.consumer_port):
                raise GraphError(
                    f"input '{edge.consumer}.{edge.consumer_port}' is already "
                    "fed by an edge"
                )
        self.edges.append(edge)
        return edge

    def expose(self, node: Any, port: str, as_name: str) -> None:
        """Rename an unbound node interface in the composed design."""
        graph_node = self._node(node)
        graph_node.interface(port)
        if as_name in self._exposed.values():
            raise GraphError(f"exposed name {as_name!r} is already taken")
        self._exposed[(graph_node.name, port)] = as_name

    # -- queries -------------------------------------------------------------
    def _node(self, ref: Any) -> GraphNode:
        name = ref.name if isinstance(ref, GraphNode) else str(ref)
        node = self.nodes.get(name)
        if node is None:
            raise GraphError(
                f"unknown node {name!r}; graph has {sorted(self.nodes)}"
            )
        return node

    @staticmethod
    def _check_compatible(producer: GraphNode, producer_port: str,
                          out_type: MemrefType,
                          consumer: GraphNode, consumer_port: str,
                          in_type: MemrefType) -> None:
        if out_type.element_type != in_type.element_type:
            raise GraphError(
                f"edge '{producer.name}.{producer_port}' -> "
                f"'{consumer.name}.{consumer_port}': element types differ "
                f"({out_type.element_type} vs {in_type.element_type})"
            )
        if out_type.num_elements != in_type.num_elements:
            raise GraphError(
                f"edge '{producer.name}.{producer_port}' -> "
                f"'{consumer.name}.{consumer_port}': shapes {out_type.shape} "
                f"and {in_type.shape} hold different element counts "
                f"({out_type.num_elements} vs {in_type.num_elements}); edges "
                "are reshape-compatible, not resize-compatible"
            )
        for memref_type, owner in ((out_type, producer), (in_type, consumer)):
            if memref_type.num_banks != 1:
                raise GraphError(
                    f"interface of node '{owner.name}' on this edge is banked "
                    f"({memref_type.num_banks} banks); stream buffers are "
                    "single-bank RAMs"
                )

    def _incoming(self, node: str) -> List[GraphEdge]:
        return [edge for edge in self.edges if edge.consumer == node]

    def _outgoing(self, node: str) -> List[GraphEdge]:
        return [edge for edge in self.edges if edge.producer == node]

    def topological_order(self) -> List[GraphNode]:
        """Nodes sorted so producers precede consumers (cycles are errors)."""
        order: List[GraphNode] = []
        pending = {name: len(self._incoming(name)) for name in self.nodes}
        ready = sorted(name for name, count in pending.items() if count == 0)
        while ready:
            name = ready.pop(0)
            order.append(self.nodes[name])
            for edge in self._outgoing(name):
                pending[edge.consumer] -= 1
                if pending[edge.consumer] == 0:
                    ready.append(edge.consumer)
            ready.sort()
        if len(order) != len(self.nodes):
            stuck = sorted(set(self.nodes) - {node.name for node in order})
            raise GraphError(
                f"graph '{self.name}' has a cycle through {stuck}; dataflow "
                "compositions must be acyclic"
            )
        return order

    def exposed_inputs(self) -> List[Tuple[GraphNode, str, MemrefType]]:
        """(node, port, type) of every node input not fed by an edge."""
        bound = {(edge.consumer, edge.consumer_port) for edge in self.edges}
        result = []
        for node in self.topological_order():
            for port, memref_type in node.artifacts.interfaces.items():
                if memref_type.can_read and not memref_type.can_write and \
                        (node.name, port) not in bound:
                    result.append((node, port, memref_type))
        return result

    def exposed_outputs(self) -> List[Tuple[GraphNode, str, MemrefType]]:
        """(node, port, type) of every node output not consumed by an edge."""
        bound = {(edge.producer, edge.producer_port) for edge in self.edges}
        result = []
        for node in self.topological_order():
            for port, memref_type in node.artifacts.interfaces.items():
                if memref_type.can_write and \
                        (node.name, port) not in bound:
                    result.append((node, port, memref_type))
        return result

    def interface_name(self, node: GraphNode, port: str) -> str:
        """Wrapper-level name of an exposed node interface."""
        custom = self._exposed.get((node.name, port))
        if custom is not None:
            return custom
        if len(self.nodes) == 1:
            return port
        return f"{node.name}_{port}"

    # -- fingerprinting ------------------------------------------------------
    def fingerprint(self) -> str:
        """Content hash over per-node module fingerprints + graph structure.

        Editing any node's HIR, rebinding a scalar, rewiring an edge or
        renaming an exposed interface changes the fingerprint — this is what
        the Flow ``compose`` stage keys its cache on.
        """
        digest = hashlib.sha256()
        digest.update(self.name.encode())
        for name in sorted(self.nodes):
            node = self.nodes[name]
            digest.update(f"\nnode {name} top={node.artifacts.top} "
                          f"fp={module_fingerprint(node.artifacts.module)} "
                          f"scalars={sorted(node.scalars.items())}".encode())
        for edge in sorted(self.edges, key=lambda e: e.buffer_name):
            digest.update(f"\nedge {edge.buffer_name}".encode())
        for key in sorted(self._exposed):
            digest.update(f"\nexpose {key} as {self._exposed[key]}".encode())
        return digest.hexdigest()[:16]

    # -- lowering ------------------------------------------------------------
    def schedule(self) -> Dict[str, NodeSchedule]:
        """Static longest-path start cycles over node quiet times."""
        order = self.topological_order()
        if not order:
            raise GraphError(f"graph '{self.name}' has no nodes")
        schedule: Dict[str, NodeSchedule] = {}
        for node in order:
            module = node.artifacts.module
            timing = analyze_function(module, node.top_func())
            start = 0
            for edge in self._incoming(node.name):
                producer = schedule[edge.producer]
                start = max(start, producer.quiet + EDGE_MARGIN)
            schedule[node.name] = NodeSchedule(name=node.name, start=start,
                                               timing=timing)
        return schedule

    def build_module(self) -> Tuple[ModuleOp, str, Dict[str, MemrefType],
                                    Dict[str, NodeSchedule]]:
        """Lower the graph to one module: cloned node functions + wrapper.

        Returns ``(module, top_name, interfaces, schedule)``.
        """
        order = self.topological_order()
        schedule = self.schedule()
        design = DesignBuilder(self.name)
        for node in order:
            clone = node.top_func().clone()
            clone.set_attr("sym_name", node.func_name)
            design.module.add(clone)

        inputs = self.exposed_inputs()
        outputs = self.exposed_outputs()
        interfaces: Dict[str, MemrefType] = {}
        args: List[Tuple[str, MemrefType]] = []
        for node, port, memref_type in inputs + outputs:
            name = self.interface_name(node, port)
            if name in interfaces:
                raise GraphError(
                    f"interface name collision on {name!r}; use expose() to "
                    "rename one of the clashing ports"
                )
            interfaces[name] = memref_type
            args.append((name, memref_type))
        if not outputs:
            raise GraphError(
                f"graph '{self.name}' has no exposed outputs; a composed "
                "design must write at least one interface"
            )

        top_name = f"{self.name}_top"
        exposed_value: Dict[Tuple[str, str], Any] = {}
        with design.func(top_name, args) as wrapper:
            for node, port, _ in inputs + outputs:
                exposed_value[(node.name, port)] = wrapper.arg(
                    self.interface_name(node, port))
            edge_ports: Dict[Tuple[str, str], Any] = {}
            for edge in self.edges:
                out_type = self.nodes[edge.producer].interface(
                    edge.producer_port)
                # The producer-facing port mirrors the producer's declared
                # kind ("w" or "rw"), so a read-back output delegates cleanly.
                write_port, read_port = wrapper.alloc(
                    out_type.shape, out_type.element_type,
                    ports=(out_type.port, "r"),
                    mem_kind="bram", name=edge.buffer_name,
                )
                edge_ports[(edge.producer, edge.producer_port)] = write_port
                edge_ports[(edge.consumer, edge.consumer_port)] = read_port
            for node in order:
                func = node.top_func()
                call_args = []
                for arg, arg_name in zip(func.arguments, func.arg_names):
                    if isinstance(arg.type, MemrefType):
                        value = edge_ports.get((node.name, arg_name))
                        if value is None:
                            value = exposed_value.get((node.name, arg_name))
                        if value is None:
                            raise GraphError(
                                f"node '{node.name}': interface '{arg_name}' "
                                "is neither connected nor exposed"
                            )
                        call_args.append(value)
                    else:
                        call_args.append(wrapper.constant(
                            node.scalars[arg_name], I32))
                wrapper.call(node.func_name, call_args, time=wrapper.time,
                             offset=schedule[node.name].start)
            wrapper.return_()
        return design.module, top_name, interfaces, schedule

    def build(self) -> GraphArtifacts:
        """Lower the graph and bundle it as :class:`GraphArtifacts`.

        The stimulus generator draws each exposed input from the owning
        kernel's own ``make_inputs`` (preserving per-kernel input domains,
        e.g. histogram pixel ranges); the reference model chains the node
        references in topological order through the edge tensors.
        """
        module, top_name, interfaces, schedule = self.build_module()
        inputs = self.exposed_inputs()
        outputs = self.exposed_outputs()
        make_inputs = self._make_inputs(inputs, outputs)
        reference = self._reference(inputs, outputs)
        output_warmup = {
            self.interface_name(node, port): node.artifacts.output_warmup[port]
            for node, port, _ in outputs
            if port in node.artifacts.output_warmup
        }
        external_models: Dict[str, Callable] = {}
        for node in self.topological_order():
            external_models.update(node.artifacts.external_models)
        return GraphArtifacts(
            graph=self,
            schedule=schedule,
            name=self.name,
            module=module,
            top=top_name,
            interfaces=interfaces,
            make_inputs=make_inputs,
            reference=reference,
            external_models=external_models,
            output_warmup=output_warmup,
            notes=(f"dataflow composition of {len(self.nodes)} kernel(s) "
                   f"over {len(self.edges)} stream buffer edge(s)"),
        )

    # -- numpy-side composition ----------------------------------------------
    def _make_inputs(self, inputs, outputs):
        import numpy as np
        graph = self

        def make(seed: int) -> Dict[str, np.ndarray]:
            tensors: Dict[str, np.ndarray] = {}
            per_node: Dict[str, Dict[str, np.ndarray]] = {}
            for index, (node, port, memref_type) in enumerate(inputs):
                name = graph.interface_name(node, port)
                if node.artifacts.make_inputs is not None:
                    if node.name not in per_node:
                        per_node[node.name] = dict(
                            node.artifacts.make_inputs(seed))
                    tensors[name] = per_node[node.name][port]
                else:
                    rng = np.random.default_rng([seed, index])
                    tensors[name] = rng.integers(-100, 100,
                                                 size=memref_type.shape)
            for node, port, memref_type in outputs:
                tensors[graph.interface_name(node, port)] = np.zeros(
                    memref_type.shape, dtype=np.int64)
            return tensors

        return make

    def _reference(self, inputs, outputs):
        import numpy as np
        if any(node.artifacts.reference is None for node in self.nodes.values()):
            return None
        graph = self

        def reference(tensors: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
            # Value of every (node, port) as the dataflow executes.
            values: Dict[Tuple[str, str], np.ndarray] = {}
            for node, port, _ in inputs:
                values[(node.name, port)] = np.asarray(
                    tensors[graph.interface_name(node, port)])
            fed = {(e.consumer, e.consumer_port): e for e in graph.edges}
            for node in graph.topological_order():
                node_inputs: Dict[str, np.ndarray] = {}
                for port, memref_type in node.artifacts.interfaces.items():
                    if not (memref_type.can_read and not memref_type.can_write):
                        continue
                    edge = fed.get((node.name, port))
                    if edge is not None:
                        produced = values[(edge.producer, edge.producer_port)]
                        node_inputs[port] = np.asarray(produced).reshape(
                            memref_type.shape)
                    else:
                        node_inputs[port] = values[(node.name, port)]
                produced = node.artifacts.reference(node_inputs)
                for port, tensor in produced.items():
                    values[(node.name, port)] = np.asarray(tensor)
            return {
                graph.interface_name(node, port): values[(node.name, port)]
                for node, port, _ in outputs
            }

        return reference

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<DesignGraph '{self.name}' nodes={sorted(self.nodes)} "
                f"edges={len(self.edges)}>")


__all__ = [
    "DesignGraph",
    "EDGE_MARGIN",
    "GraphArtifacts",
    "GraphEdge",
    "GraphError",
    "GraphNode",
    "NodeSchedule",
]
