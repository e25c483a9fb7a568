"""Automatic operation scheduling for the baseline HLS compiler.

This is the piece HIR deliberately does *not* have: given an unscheduled
loop body, decide the clock cycle of every operation.  The implementation
follows the classic HLS flow:

1. flatten the loop body into a dataflow graph of primitive operations,
2. add data and memory dependences (including loop-carried ones),
3. compute ASAP / ALAP bounds,
4. run resource-constrained list scheduling (memory ports are the scarce
   resource; combinational chaining is bounded), and
5. for pipelined loops, search for the smallest feasible initiation interval
   starting from max(ResMII, RecMII) using modulo scheduling.

The point of this module in the reproduction is twofold: it produces the
schedules behind the baseline's RTL (Tables 4 and 5), and it is the dominant
component of the baseline's compile time (Table 6), exactly as automatic
scheduling dominates a real HLS tool's runtime.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.errors import HLSError
from repro.hls.swir import (
    Assign,
    BinExpr,
    Expr,
    For,
    IntConst,
    Load,
    Statement,
    Store,
    Var,
    variables_in,
)

#: Operator latencies in clock cycles (results available N cycles later).
LATENCY = {
    "load": 1,
    "store": 0,
    "mul": 2,
    "add": 0,
    "sub": 0,
    "cmp": 0,
    "logic": 0,
    "shift": 0,
    "copy": 0,
}

#: Maximum number of zero-latency operations chained in one clock cycle.
CHAIN_LIMIT = 2

#: Memory ports available per array (block RAM: one read + one write).
READ_PORTS_PER_ARRAY = 1
WRITE_PORTS_PER_ARRAY = 1

#: When True, successors()/predecessors() answer with the seed's O(E) edge
#: scans instead of cached adjacency lists.  A seed-equivalent compile
#: (``compile_program(..., seed_equivalent=True)``, the frozen Table 6
#: baseline and the compile-time benchmark's seed sweep) sets it for its
#: duration; results are identical either way.
LEGACY_SCANS = False


class legacy_scan_mode:
    """Context manager restoring the seed's O(E) dependence scans when
    ``enabled`` (a no-op otherwise)."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled

    def __enter__(self) -> None:
        global LEGACY_SCANS
        self._saved = LEGACY_SCANS
        LEGACY_SCANS = self._saved or self.enabled

    def __exit__(self, *exc) -> None:
        global LEGACY_SCANS
        LEGACY_SCANS = self._saved


@dataclass
class DFGNode:
    """One primitive operation in the dataflow graph."""

    index: int
    kind: str                       # load/store/mul/add/sub/cmp/logic/shift/copy
    result: Optional[str]           # temporary or scalar name it defines
    reads: List[str]                # scalar names it reads
    array: Optional[str] = None     # for load/store
    subscripts: Tuple[Expr, ...] = ()
    expr: Optional[Expr] = None
    width: int = 32
    statement_index: int = 0
    #: For binary compute nodes: the textual operands ("#3" for constants,
    #: otherwise the SSA-ish value name), so RTL generation references the
    #: already-computed sub-results instead of re-materialising sub-trees.
    operand_names: Tuple[str, ...] = ()

    @property
    def latency(self) -> int:
        return LATENCY[self.kind]


@dataclass
class DataflowGraph:
    nodes: List[DFGNode] = field(default_factory=list)
    #: Edges as (producer index, consumer index, loop-carried distance).
    edges: List[Tuple[int, int, int]] = field(default_factory=list)
    #: Lazily built adjacency lists.  The seed implementation answered every
    #: successors()/predecessors() query with an O(E) scan, which dominated
    #: DSE compile time (list scheduling asks per node, per candidate).
    _succ: Optional[List[List[Tuple[int, int]]]] = field(
        default=None, repr=False, compare=False)
    _pred: Optional[List[List[Tuple[int, int]]]] = field(
        default=None, repr=False, compare=False)
    _adj_shape: Tuple[int, int] = field(default=(-1, -1), repr=False,
                                        compare=False)

    def _ensure_adjacency(self) -> None:
        shape = (len(self.nodes), len(self.edges))
        if self._succ is None or self._adj_shape != shape:
            succ: List[List[Tuple[int, int]]] = [[] for _ in self.nodes]
            pred: List[List[Tuple[int, int]]] = [[] for _ in self.nodes]
            for src, dst, dist in self.edges:
                succ[src].append((dst, dist))
                pred[dst].append((src, dist))
            self._succ, self._pred, self._adj_shape = succ, pred, shape

    def successors(self, index: int) -> List[Tuple[int, int]]:
        if LEGACY_SCANS:
            return [(dst, dist) for src, dst, dist in self.edges if src == index]
        self._ensure_adjacency()
        return self._succ[index]

    def predecessors(self, index: int) -> List[Tuple[int, int]]:
        if LEGACY_SCANS:
            return [(src, dist) for src, dst, dist in self.edges if dst == index]
        self._ensure_adjacency()
        return self._pred[index]


@dataclass
class LoopSchedule:
    """The result of scheduling one loop body."""

    graph: DataflowGraph
    start_cycle: Dict[int, int]
    latency: int                    # cycles for one iteration
    initiation_interval: int        # II (== latency for non-pipelined loops)
    pipelined: bool
    attempts: int = 1               # how many candidate IIs were evaluated


# --------------------------------------------------------------------------- #
# DFG construction
# --------------------------------------------------------------------------- #

_OP_KIND = {"+": "add", "-": "sub", "*": "mul", "&": "logic", "|": "logic",
            "^": "logic", "<<": "shift", ">>": "shift",
            "<": "cmp", "<=": "cmp", ">": "cmp", ">=": "cmp", "==": "cmp",
            "!=": "cmp"}


class DFGBuilder:
    """Flattens a loop body (or straight-line region) into a dataflow graph."""

    def __init__(self) -> None:
        self.graph = DataflowGraph()
        self._temp_counter = 0
        self._last_def: Dict[str, int] = {}
        self._array_accesses: Dict[str, List[int]] = {}
        #: Reads of scalars not yet defined in the body: if the scalar is
        #: defined later, the read depends on the *previous* iteration's value
        #: (an accumulator recurrence).
        self._pending_reads: List[Tuple[str, int]] = []

    def build(self, statements: Sequence[Statement]) -> DataflowGraph:
        for statement_index, statement in enumerate(statements):
            self._lower_statement(statement, statement_index)
        self._add_memory_dependences()
        self._add_scalar_recurrences()
        return self.graph

    # -- helpers -----------------------------------------------------------------
    def _new_temp(self) -> str:
        self._temp_counter += 1
        return f"_t{self._temp_counter}"

    def _add_node(self, node: DFGNode) -> int:
        node.index = len(self.graph.nodes)
        self.graph.nodes.append(node)
        for read in node.reads:
            producer = self._last_def.get(read)
            if producer is not None:
                self.graph.edges.append((producer, node.index, 0))
            else:
                self._pending_reads.append((read, node.index))
        if node.result is not None:
            self._last_def[node.result] = node.index
        if node.array is not None:
            self._array_accesses.setdefault(node.array, []).append(node.index)
        return node.index

    def _lower_expr(self, expr: Expr, statement_index: int) -> Tuple[str, List[str]]:
        """Lower an expression tree to nodes; returns (value name, reads)."""
        if isinstance(expr, IntConst):
            return f"#{expr.value}", []
        if isinstance(expr, Var):
            return expr.name, [expr.name]
        if isinstance(expr, BinExpr):
            lhs_name, _ = self._lower_expr(expr.lhs, statement_index)
            rhs_name, _ = self._lower_expr(expr.rhs, statement_index)
            temp = self._new_temp()
            reads = [n for n in (lhs_name, rhs_name) if not n.startswith("#")]
            self._add_node(DFGNode(0, _OP_KIND.get(expr.op, "logic"), temp, reads,
                                   expr=expr, statement_index=statement_index,
                                   operand_names=(lhs_name, rhs_name)))
            return temp, reads
        raise HLSError(f"cannot lower expression {expr!r}")

    def _lower_statement(self, statement: Statement, statement_index: int) -> None:
        if isinstance(statement, Assign):
            value, reads = self._lower_expr(statement.expr, statement_index)
            if not isinstance(statement.expr, BinExpr):
                self._add_node(DFGNode(0, "copy", statement.target,
                                       [value] if not value.startswith("#") else [],
                                       statement_index=statement_index))
            else:
                # Rename the last node's result to the assignment target.
                node = self.graph.nodes[-1]
                node.result = statement.target
                self._last_def[statement.target] = node.index
        elif isinstance(statement, Load):
            reads: List[str] = []
            for subscript in statement.indices:
                reads.extend(variables_in(subscript))
            self._add_node(DFGNode(0, "load", statement.target, reads,
                                   array=statement.array,
                                   subscripts=statement.indices,
                                   statement_index=statement_index))
        elif isinstance(statement, Store):
            reads = list(variables_in(statement.value))
            for subscript in statement.indices:
                reads.extend(variables_in(subscript))
            value_name, _ = self._lower_expr(statement.value, statement_index)
            if not value_name.startswith("#") and value_name not in reads:
                reads.append(value_name)
            self._add_node(DFGNode(0, "store", None, reads,
                                   array=statement.array,
                                   subscripts=statement.indices,
                                   expr=statement.value,
                                   statement_index=statement_index))
        elif isinstance(statement, For):
            raise HLSError(
                "nested loops must be handled by the function scheduler, not "
                "the DFG builder"
            )
        else:  # pragma: no cover - defensive
            raise HLSError(f"cannot schedule statement {statement!r}")

    def _add_memory_dependences(self) -> None:
        """Add RAW/WAR/WAW edges between accesses to the same array.

        Subscript pairs that are syntactically identical are given distance 0
        (same-iteration dependence); anything else is conservatively treated
        as a loop-carried dependence of distance 1, which is what forces the
        II above 1 for kernels with read-modify-write recurrences (histogram).
        """
        for accesses in self._array_accesses.values():
            for earlier, later in itertools.combinations(accesses, 2):
                first = self.graph.nodes[earlier]
                second = self.graph.nodes[later]
                if first.kind == "load" and second.kind == "load":
                    continue
                if _same_subscripts(first, second):
                    # Same-iteration dependence in program order.
                    self.graph.edges.append((earlier, later, 0))
                    if not _constant_subscripts(first):
                        # Data-dependent addresses (e.g. histogram bins) may
                        # alias across iterations: add a conservative
                        # loop-carried dependence as well.
                        self.graph.edges.append((earlier, later, 1))
                else:
                    self.graph.edges.append((earlier, later, 1))

    def _add_scalar_recurrences(self) -> None:
        """Loop-carried scalar dependences (accumulators such as ``acc += x``).

        A read of a scalar that is only defined later in the body consumes the
        value produced by the previous iteration: add a distance-1 edge from
        the producer to the reader.
        """
        for name, reader in self._pending_reads:
            producer = self._last_def.get(name)
            if producer is not None:
                self.graph.edges.append((producer, reader, 1))


def _same_subscripts(a: DFGNode, b: DFGNode) -> bool:
    return tuple(map(str, a.subscripts)) == tuple(map(str, b.subscripts))


def _constant_subscripts(node: DFGNode) -> bool:
    return all(isinstance(subscript, IntConst) for subscript in node.subscripts)


# --------------------------------------------------------------------------- #
# ASAP / ALAP and list scheduling
# --------------------------------------------------------------------------- #


def asap_schedule(graph: DataflowGraph) -> Dict[int, int]:
    """Earliest start cycle of every node ignoring resource limits."""
    start: Dict[int, int] = {}
    for node in graph.nodes:
        earliest = 0
        for pred, distance in graph.predecessors(node.index):
            if distance == 0:
                earliest = max(earliest,
                               start[pred] + graph.nodes[pred].latency)
        start[node.index] = earliest
    return start


def alap_schedule(graph: DataflowGraph, horizon: int) -> Dict[int, int]:
    """Latest start cycle of every node for a given overall latency."""
    start: Dict[int, int] = {}
    for node in reversed(graph.nodes):
        latest = horizon
        for succ, distance in graph.successors(node.index):
            if distance == 0:
                latest = min(latest, start[succ] - node.latency)
        start[node.index] = max(0, latest)
    return start


@dataclass
class _ResourceTable:
    """Tracks memory-port usage per cycle (modulo II when pipelining)."""

    modulo: Optional[int] = None
    reads: Dict[Tuple[str, int], int] = field(default_factory=dict)
    writes: Dict[Tuple[str, int], int] = field(default_factory=dict)
    chain: Dict[int, int] = field(default_factory=dict)
    #: Ports per array (from array_partition pragmas); default one per kind.
    array_ports: Dict[str, int] = field(default_factory=dict)

    def _slot(self, cycle: int) -> int:
        return cycle % self.modulo if self.modulo else cycle

    def _ports(self, array: str, default: int) -> int:
        return max(default, self.array_ports.get(array, default))

    def can_place(self, node: DFGNode, cycle: int) -> bool:
        slot = self._slot(cycle)
        if node.kind == "load":
            limit = self._ports(node.array or "", READ_PORTS_PER_ARRAY)
            return self.reads.get((node.array or "", slot), 0) < limit
        if node.kind == "store":
            limit = self._ports(node.array or "", WRITE_PORTS_PER_ARRAY)
            return self.writes.get((node.array or "", slot), 0) < limit
        if node.latency == 0:
            return self.chain.get(slot, 0) < CHAIN_LIMIT * 4
        return True

    def place(self, node: DFGNode, cycle: int) -> None:
        slot = self._slot(cycle)
        if node.kind == "load":
            key = (node.array or "", slot)
            self.reads[key] = self.reads.get(key, 0) + 1
        elif node.kind == "store":
            key = (node.array or "", slot)
            self.writes[key] = self.writes.get(key, 0) + 1
        elif node.latency == 0:
            self.chain[slot] = self.chain.get(slot, 0) + 1


def list_schedule(graph: DataflowGraph,
                  modulo: Optional[int] = None,
                  array_ports: Optional[Dict[str, int]] = None) -> Optional[Dict[int, int]]:
    """Resource-constrained list scheduling; None if infeasible at this II."""
    asap = asap_schedule(graph)
    horizon = max((asap[n.index] + n.latency for n in graph.nodes), default=0)
    alap = alap_schedule(graph, horizon)
    priority = sorted(graph.nodes, key=lambda n: (alap[n.index], n.index))
    table = _ResourceTable(modulo=modulo, array_ports=dict(array_ports or {}))
    start: Dict[int, int] = {}
    for node in priority:
        earliest = 0
        for pred, distance in graph.predecessors(node.index):
            if pred not in start:
                if distance == 0:
                    # Predecessor not scheduled yet (priority inversion):
                    # fall back to its ASAP estimate.
                    earliest = max(earliest, asap[pred] + graph.nodes[pred].latency)
                continue
            if distance == 0:
                earliest = max(earliest, start[pred] + graph.nodes[pred].latency)
            elif modulo is not None:
                # Loop-carried dependence: must finish before the same point
                # ``distance`` iterations later.
                earliest = max(earliest,
                               start[pred] + graph.nodes[pred].latency
                               - distance * modulo)
        cycle = max(0, earliest)
        placed = False
        limit = cycle + (modulo if modulo else horizon + len(graph.nodes)) + 64
        while cycle <= limit:
            if table.can_place(node, cycle):
                table.place(node, cycle)
                start[node.index] = cycle
                placed = True
                break
            cycle += 1
        if not placed:
            return None
    if modulo is not None and not _modulo_feasible(graph, start, modulo):
        return None
    return start


def _modulo_feasible(graph: DataflowGraph, start: Dict[int, int], ii: int) -> bool:
    """Check every loop-carried dependence under the candidate II."""
    for src, dst, distance in graph.edges:
        if distance == 0:
            continue
        if start[src] + graph.nodes[src].latency > start[dst] + distance * ii:
            return False
    return True


# --------------------------------------------------------------------------- #
# II search
# --------------------------------------------------------------------------- #


def resource_min_ii(graph: DataflowGraph,
                    array_ports: Optional[Dict[str, int]] = None) -> int:
    """ResMII: limited by memory ports per array (partitioning adds ports)."""
    ports = dict(array_ports or {})
    reads: Dict[str, int] = {}
    writes: Dict[str, int] = {}
    for node in graph.nodes:
        if node.kind == "load":
            reads[node.array or ""] = reads.get(node.array or "", 0) + 1
        elif node.kind == "store":
            writes[node.array or ""] = writes.get(node.array or "", 0) + 1
    candidates = [1]
    candidates += [-(-count // max(READ_PORTS_PER_ARRAY, ports.get(array, 1)))
                   for array, count in reads.items()]
    candidates += [-(-count // max(WRITE_PORTS_PER_ARRAY, ports.get(array, 1)))
                   for array, count in writes.items()]
    return max(candidates)


def recurrence_min_ii(graph: DataflowGraph) -> int:
    """RecMII from simple two-node recurrences (load/store on the same array)."""
    rec = 1
    for src, dst, distance in graph.edges:
        if distance <= 0:
            continue
        path_latency = graph.nodes[src].latency + 1
        kinds = {graph.nodes[src].kind, graph.nodes[dst].kind}
        if kinds == {"load", "store"}:
            # A read-modify-write recurrence (e.g. histogram bins): the next
            # iteration's read must wait for this iteration's write to land.
            path_latency = max(path_latency, LATENCY["load"] + 2)
        rec = max(rec, -(-path_latency // distance))
    return rec


def schedule_loop(statements: Sequence[Statement], pipeline: bool,
                  requested_ii: Optional[int] = None,
                  max_ii: int = 64,
                  array_ports: Optional[Dict[str, int]] = None,
                  graph: Optional[DataflowGraph] = None,
                  attempt_cache: Optional[Dict[int, Optional[Dict[int, int]]]]
                  = None) -> LoopSchedule:
    """Schedule one loop body, searching for the best II when pipelining.

    ``graph`` may supply a pre-built dataflow graph of ``statements`` so DSE
    sweeps do not rebuild (and re-analyse) the same graph once per candidate
    II; the builder is deterministic, so passing it is purely a time saver.

    ``attempt_cache`` maps a candidate II to its list-scheduling outcome
    (the start-cycle map, or None when infeasible) for *this* graph and port
    configuration.  A DSE sweep shares one cache across its II window, so
    overlapping internal searches — candidate II ``r`` and ``r+1`` both
    probing ``r+1, r+2, ...`` — run each probe once.  List scheduling is
    deterministic, so cached and fresh outcomes are identical.
    """
    if graph is None:
        graph = DFGBuilder().build(statements)
    attempts = 0
    if pipeline:
        lower = max(resource_min_ii(graph, array_ports), recurrence_min_ii(graph))
        if requested_ii is not None:
            lower = max(lower, requested_ii)
        for ii in range(lower, max_ii + 1):
            attempts += 1
            if attempt_cache is not None and ii in attempt_cache:
                start = attempt_cache[ii]
            else:
                start = list_schedule(graph, modulo=ii, array_ports=array_ports)
                if attempt_cache is not None:
                    attempt_cache[ii] = start
            if start is not None:
                latency = _latency_of(graph, start)
                return LoopSchedule(graph, start, latency, ii, True, attempts)
        raise HLSError(f"no feasible initiation interval up to {max_ii}")
    start = list_schedule(graph, modulo=None, array_ports=array_ports)
    attempts += 1
    if start is None:
        raise HLSError("list scheduling failed for a non-pipelined loop")
    latency = _latency_of(graph, start)
    return LoopSchedule(graph, start, latency, max(latency, 1), False, attempts)


def _latency_of(graph: DataflowGraph, start: Dict[int, int]) -> int:
    return max((start[n.index] + max(n.latency, 1) for n in graph.nodes), default=1)
