"""Design-space exploration (DSE) for the baseline HLS compiler.

Commercial HLS tools spend most of their compile time evaluating candidate
schedules: different initiation intervals, unroll factors and binding options
are scheduled and costed before the directive-selected (or best) one is kept.
This module reproduces that behaviour with real work — every surviving
candidate is actually scheduled and costed — which is what makes the
baseline's compile time orders of magnitude larger than HIR code generation
(Table 6).

Fast path (the default; ``seed_equivalent=True`` turns all of it off and
also restores the seed's O(E) dependence scans, so the frozen Table 6
baseline keeps the seed's cost profile).  Every mechanism preserves the
chosen schedule and emitted Verilog bit for bit:

* **Shared graphs.**  Each unroll factor's dataflow graph is built once and
  shared across port configurations and II candidates, and each (unroll,
  ports) configuration shares one II attempt cache across its II window
  (see :func:`repro.hls.scheduling.schedule_loop`).

* **Pruning.**  Before scheduling a candidate we compute a true lower bound
  on its cost: the resource-free ASAP latency of its DFG times its requested
  II (for non-pipelined candidates, times the ASAP latency itself, since the
  sequential II equals the latency).  Because list scheduling can only
  *delay* operations relative to ASAP, and the area factor of
  :attr:`Candidate.cost` is >= 1, the real cost is >= this bound.  A
  candidate whose bound strictly exceeds the incumbent best can therefore
  never be selected — neither by lowest cost nor by the directive rule
  (which minimises (II, cost), and the bound's II component never exceeds
  the achieved II) — and is skipped without scheduling.

* **Serial order.**  Candidates are evaluated one at a time: with pruning
  on, the spec with the most promising lower bound first (it seeds the
  incumbent), then the rest in the seed compiler's enumeration order.  The
  candidate list keeps enumeration order, so ties resolve exactly as in
  the seed sweep.  There is no parallel sweep: scheduling is pure Python,
  so thread pools only add hand-off cost under the GIL and process pools
  add pickling and start-up; both were slower than the serial loop on the
  paper-scale Table 6 sweep and no faster at CI's smoke sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hls.binding import bind_loop
from repro.obs.tracer import TRACER
from repro.hls.scheduling import (
    DataflowGraph,
    DFGBuilder,
    LoopSchedule,
    asap_schedule,
    legacy_scan_mode,
    recurrence_min_ii,
    resource_min_ii,
    schedule_loop,
)
from repro.hls.swir import For, Statement

#: How many candidate IIs beyond the minimum are explored per pipelined loop.
II_SEARCH_WINDOW = 8
#: Unroll factors explored for loops without an explicit unroll pragma.
UNROLL_CANDIDATES = (1, 2, 4, 8)


@dataclass
class Candidate:
    """One evaluated design point."""

    initiation_interval: int
    unroll_factor: int
    latency: int
    estimated_registers: int
    estimated_memory_ops: int
    schedule: LoopSchedule

    @property
    def cost(self) -> float:
        """A simple area-delay product used to rank candidates."""
        area = self.estimated_registers + 4 * self.estimated_memory_ops
        return float(self.latency * max(1, self.initiation_interval)) * (1 + area / 64.0)


@dataclass
class LoopExploration:
    """Every candidate evaluated for one loop plus the chosen one."""

    loop: For
    candidates: List[Candidate] = field(default_factory=list)
    chosen: Optional[Candidate] = None
    #: Design points skipped because their cost lower bound could not win.
    pruned: int = 0
    #: Design points that ran the scheduler.
    scheduled: int = 0

    @property
    def evaluations(self) -> int:
        """Design points examined (evaluated or pruned via lower bound)."""
        return len(self.candidates) + self.pruned


# --------------------------------------------------------------------------- #
# Candidate enumeration and evaluation
# --------------------------------------------------------------------------- #


def _unrolled_body(body: Sequence[Statement], loop_var: str,
                   factor: int, step: int) -> List[Statement]:
    """Replicate the body ``factor`` times (coarse model of partial unrolling).

    Subscript rewriting is not needed for cost estimation: the replicated
    accesses are what create the port pressure the scheduler must resolve.
    """
    replicated: List[Statement] = []
    for _ in range(factor):
        replicated.extend(body)
    return replicated


@dataclass
class _Spec:
    """One design point to evaluate, in seed enumeration order."""

    order: int
    unroll: int
    requested_ii: int          # 0 = sequential sentinel
    pipelined: bool
    ports: Dict[str, int]
    body: List[Statement]
    #: None in seed-equivalent mode: the scheduler then rebuilds the graph
    #: per design point, as the seed did.
    graph: Optional[DataflowGraph]
    lb_latency: int
    #: Shared per-(unroll, ports) II attempt cache (None in seed-equivalent
    #: mode); see schedule_loop.
    attempt_cache: Optional[Dict[int, object]]

    @property
    def lb_cost(self) -> float:
        """True lower bound on the candidate's area-delay cost."""
        lb_ii = self.requested_ii if self.pipelined else self.lb_latency
        return float(self.lb_latency * max(1, lb_ii))


def _asap_latency(graph: DataflowGraph) -> int:
    start = asap_schedule(graph)
    return max((start[n.index] + max(n.latency, 1) for n in graph.nodes),
               default=1)


def _enumerate_specs(loop: For, array_ports: Optional[Dict[str, int]],
                     seed_equivalent: bool) -> List[_Spec]:
    """Candidate design points in exactly the seed compiler's sweep order."""
    pragmas = loop.pragmas
    if pragmas.unroll_factor > 1:
        unroll_options: Tuple[int, ...] = (pragmas.unroll_factor,)
    elif pragmas.pipeline:
        unroll_options = (1,)
    else:
        unroll_options = UNROLL_CANDIDATES

    specs: List[_Spec] = []
    port_configs = (1, 2, 4)  # single-port, dual-port, 2x-banked dual-port
    for unroll in unroll_options:
        if not seed_equivalent:
            shared_body = _unrolled_body(loop.body, loop.var, unroll, loop.step)
            shared_graph = DFGBuilder().build(shared_body)
            lb_latency = _asap_latency(shared_graph)
        for port_scale in port_configs:
            scaled_ports = {name: ports * port_scale
                            for name, ports in (array_ports or {}).items()}
            if seed_equivalent:
                # Rebuild the body and graph per port config (and let
                # schedule_loop rebuild again per design point).
                body = _unrolled_body(loop.body, loop.var, unroll, loop.step)
                min_ii_graph = DFGBuilder().build(body)
                graph, lb_latency, attempt_cache = None, 0, None
            else:
                body, graph = shared_body, shared_graph
                min_ii_graph = shared_graph
                attempt_cache = {}
            min_ii = max(resource_min_ii(min_ii_graph, scaled_ports),
                         recurrence_min_ii(min_ii_graph))
            if pragmas.pipeline:
                requested = pragmas.initiation_interval or min_ii
                ii_candidates = range(max(min_ii, requested),
                                      max(min_ii, requested) + II_SEARCH_WINDOW)
            else:
                ii_candidates = [0]  # sentinel: sequential schedule
            for ii in ii_candidates:
                pipelined = pragmas.pipeline and ii > 0
                specs.append(_Spec(len(specs), unroll, ii, pipelined,
                                   scaled_ports, body, graph, lb_latency,
                                   attempt_cache))
    return specs


# --------------------------------------------------------------------------- #
# Incumbent tracking and pruning
# --------------------------------------------------------------------------- #


class _Incumbent:
    """Tracks the best evaluated candidate under the selection rule in use.

    ``directive`` mode mirrors :func:`_select`'s pragma branch (minimise
    (II, cost)); otherwise candidates compete on cost alone.  ``can_prune``
    is deliberately *strict*: a candidate is only skipped when its lower
    bound makes winning impossible, including tie-breaks, so pruning never
    changes which candidate ``_select`` returns.
    """

    def __init__(self, directive: bool) -> None:
        self.directive = directive
        self.best_cost: Optional[float] = None
        self.best_ii: Optional[int] = None

    def observe(self, candidate: Candidate) -> None:
        cost = candidate.cost
        ii = candidate.initiation_interval
        if self.best_cost is None:
            self.best_cost, self.best_ii = cost, ii
            return
        if self.directive:
            if (ii, cost) < (self.best_ii, self.best_cost):
                self.best_cost, self.best_ii = cost, ii
        elif cost < self.best_cost:
            self.best_cost, self.best_ii = cost, ii

    def can_prune(self, spec: _Spec) -> bool:
        if self.best_cost is None:
            return False
        if self.directive:
            # The achieved II is >= the requested II, so comparing the
            # requested II against the incumbent's achieved II is a bound.
            if spec.requested_ii > self.best_ii:
                return True
            if spec.requested_ii == self.best_ii:
                return spec.lb_cost > self.best_cost
            return False
        return spec.lb_cost > self.best_cost


def _evaluate_spec(spec: _Spec, exploration: LoopExploration) -> Candidate:
    """Schedule, bind and cost one design point."""
    with TRACER.span("dse.candidate", cat="dse", order=spec.order,
                     unroll=spec.unroll, ii=spec.requested_ii):
        schedule = schedule_loop(
            spec.body, pipeline=spec.pipelined,
            requested_ii=spec.requested_ii if spec.pipelined else None,
            array_ports=spec.ports, graph=spec.graph,
            attempt_cache=spec.attempt_cache)
        binding = bind_loop(schedule)
    exploration.scheduled += 1
    registers = binding.total_register_bits // 32 + 1
    memory_ops = sum(
        1 for node in schedule.graph.nodes if node.kind in ("load", "store")
    )
    return Candidate(schedule.initiation_interval, spec.unroll,
                     schedule.latency, registers, memory_ops, schedule)


def explore_loop(loop: For,
                 array_ports: Optional[Dict[str, int]] = None,
                 seed_equivalent: bool = False) -> LoopExploration:
    """Schedule, bind and cost every candidate design point for one loop.

    ``seed_equivalent`` reproduces the seed compiler's sweep exactly: every
    design point is scheduled (no pruning) on a graph rebuilt for it, with
    the seed's O(E) dependence scans.  The chosen candidate is the same.
    """
    exploration = LoopExploration(loop)
    pragmas = loop.pragmas
    directive = bool(pragmas.pipeline and pragmas.initiation_interval is not None)
    incumbent = _Incumbent(directive)

    with legacy_scan_mode(seed_equivalent):
        specs = _enumerate_specs(loop, array_ports, seed_equivalent)
        with TRACER.span("dse.explore_loop", cat="dse", var=loop.var,
                         specs=len(specs)):
            exploration.candidates = _explore_serial(
                specs, exploration, incumbent, prune=not seed_equivalent)
    exploration.chosen = _select(exploration.candidates, pragmas)
    TRACER.count("dse.sweeps")
    TRACER.count("dse.pruned", exploration.pruned)
    TRACER.count("dse.scheduled", exploration.scheduled)
    return exploration


def _explore_serial(specs: List[_Spec], exploration: LoopExploration,
                    incumbent: _Incumbent, prune: bool) -> List[Candidate]:
    """Evaluate (or prune) every spec; the candidates keep enumeration order.

    With pruning on, the spec with the most promising lower bound under the
    selection rule (the lowest ``(requested II, bound)`` in directive mode,
    else the lowest bound; the first in enumeration order on a tie) is
    evaluated first, so the incumbent starts near the winner and prunes
    more of the rest.  Its candidate keeps its enumeration position, so
    :func:`_select`'s tie-breaks do not move.
    """
    seed: Optional[_Spec] = None
    if prune and specs:
        seed = min(specs, key=(lambda spec: (spec.requested_ii, spec.lb_cost))
                   if incumbent.directive else (lambda spec: spec.lb_cost))
        seeded = _evaluate_spec(seed, exploration)
        incumbent.observe(seeded)
    candidates: List[Candidate] = []
    for spec in specs:
        if spec is seed:
            candidates.append(seeded)
            continue
        if prune and incumbent.can_prune(spec):
            exploration.pruned += 1
            continue
        candidate = _evaluate_spec(spec, exploration)
        candidates.append(candidate)
        incumbent.observe(candidate)
    return candidates


def _select(candidates: List[Candidate], pragmas) -> Candidate:
    """Honour explicit directives, otherwise pick the lowest-cost candidate."""
    if pragmas.pipeline and pragmas.initiation_interval is not None:
        matching = [c for c in candidates
                    if c.initiation_interval >= pragmas.initiation_interval]
        if matching:
            return min(matching, key=lambda c: (c.initiation_interval, c.cost))
    return min(candidates, key=lambda c: c.cost)


def collect_innermost_loops(statements: Sequence[Statement],
                            depth: int = 0) -> List[Tuple[For, int]]:
    """Every innermost loop in a statement list with its nesting depth."""
    loops: List[Tuple[For, int]] = []
    for statement in statements:
        if isinstance(statement, For):
            inner = collect_innermost_loops(statement.body, depth + 1)
            if inner:
                loops.extend(inner)
            else:
                loops.append((statement, depth))
    return loops
