"""Per-design compilation cache.

Elaboration, levelization and Python code generation are pure functions of
the design AST (plus the ``top`` override), so their results are shared
across simulator instances: re-running the same generated design — a
multi-seed sweep, a batched run after a single run, the differential
harness's second engine — pays compilation once.  Entries are keyed weakly on
the :class:`~repro.verilog.ast.Design` object, so a design's artifacts die
with it.

Designs with external (black-box) models are never cached: their elaboration
instantiates stateful behavioural models that must stay private to one
simulator.

The cache is bounded: long batched sweeps compile many distinct designs, and
without a cap every compiled artifact would stay alive for as long as its
design object does.  The least-recently-used design entries are evicted once
the cache holds more than ``REPRO_SIM_CACHE_SIZE`` designs (default 64; 0
disables caching entirely).  Eviction only drops the cache's references —
simulators already built from the artifacts keep working.
"""

from __future__ import annotations

import contextvars
import os
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.resilience.faults import fault_point
from repro.sim.engine.codegen import (
    clock_source,
    comb_source,
    comb_vector_source,
    compile_clock,
    compile_comb,
    compile_comb_vector,
)
from repro.sim.engine.levelize import LoweredDesign, lower_design
from repro.sim.verilog_sim import _Elaborator, _FlatDesign
from repro.verilog.ast import Design

# Designs are eq-comparing dataclasses (unhashable), so key on identity and
# evict via a finalizer when the design object dies.  Ordered by recency of
# use (most recent last) for LRU eviction.
_CACHE: "OrderedDict[int, dict]" = OrderedDict()
#: Design ids with a live finalizer, so a design that is LRU-evicted and
#: later re-cached does not accumulate one finalizer per re-insertion.
_FINALIZED: set = set()

#: Lifetime hit/miss/eviction counters, reported through
#: :mod:`repro.obs.cachestats` as the ``sim.compile`` cache.
_STATS = {"hits": 0, "misses": 0, "evictions": 0}


#: Programmatic capacity override (wins over the environment); installed by
#: :meth:`repro.flow.FlowConfig` for the duration of a Flow-driven run.
_capacity_override: Optional[int] = None


def set_cache_capacity(size: Optional[int]) -> Optional[int]:
    """Override the compile-cache capacity (``None`` restores the
    ``REPRO_SIM_CACHE_SIZE`` environment default); returns the previous
    override so callers can restore it."""
    global _capacity_override
    previous = _capacity_override
    _capacity_override = size if size is None else max(0, int(size))
    return previous


def _cache_capacity() -> int:
    if _capacity_override is not None:
        return _capacity_override
    try:
        return max(0, int(os.environ.get("REPRO_SIM_CACHE_SIZE", "64")))
    except ValueError:
        return 64


def compile_cache_size() -> int:
    """Number of designs currently held by the compile cache."""
    return len(_CACHE)


def _on_design_death(key: int) -> None:
    _CACHE.pop(key, None)
    _FINALIZED.discard(key)


def _design_entry(design: Design) -> Optional[dict]:
    capacity = _cache_capacity()
    if capacity == 0:
        return None
    key = id(design)
    entry = _CACHE.get(key)
    if entry is None:
        entry = {}
        _CACHE[key] = entry
        if key not in _FINALIZED:
            # One finalizer per design lifetime; it also frees the id for
            # reuse, so eviction + re-insertion cannot stack finalizers.
            _FINALIZED.add(key)
            weakref.finalize(design, _on_design_death, key)
    _CACHE.move_to_end(key)
    while len(_CACHE) > capacity:
        _CACHE.popitem(last=False)
        _STATS["evictions"] += 1
    return entry


@dataclass
class CompiledArtifacts:
    """Everything shareable between simulators of one (design, top) pair."""

    flat: _FlatDesign
    lowered: LoweredDesign
    #: Scalar dialect: per-assignment step functions + clocked step function.
    step_fns: Optional[List[Callable]] = None
    clock_fn: Optional[Callable] = None
    #: Vector dialect: whole-netlist pass + predicated clocked function.
    comb_vector_fn: Optional[Callable] = None
    clock_vector_fn: Optional[Callable] = None
    #: Fused whole-run programs (:mod:`repro.sim.engine.vector`), keyed on
    #: the interface-memory signature they were specialized against.
    vector_runs: Dict[str, Callable] = field(default_factory=dict)


#: When set (by :func:`persist_compiled`), generated simulator sources are
#: loaded from / published to this ``(ArtifactStore, design key)`` pair, so a
#: later process skips Python code generation for a design it has seen.
_PERSIST: "contextvars.ContextVar[Optional[Tuple[object, str]]]" = \
    contextvars.ContextVar("repro_sim_persist", default=None)


@contextmanager
def persist_compiled(store, key: str):
    """Persist generated simulator sources under ``key`` for this block.

    ``store`` is a :class:`repro.store.ArtifactStore` (or ``None`` for a
    no-op); ``key`` must fingerprint the design *content* (the Flow passes
    its design key).  Sources are stored under kind ``simsrc``.
    """
    if store is None:
        yield
        return
    token = _PERSIST.set((store, key))
    try:
        yield
    finally:
        _PERSIST.reset(token)


def _sourced(suffix: str, generate: Callable[[], str]) -> str:
    """The generated source for ``suffix``, read through the persist store
    (:meth:`repro.store.ArtifactStore.read_through`, kind ``simsrc``)."""
    context = _PERSIST.get()
    if context is None:
        return generate()
    store, base = context
    return store.read_through("simsrc", f"{base}-{suffix}", generate)


def _elaborate(design: Design, top: Optional[str],
               external_models) -> Tuple[_FlatDesign, LoweredDesign]:
    if top is not None:
        design = Design(top=top, modules=design.modules)
    flat = _Elaborator(design, external_models).elaborate()
    return flat, lower_design(flat)


def base_artifacts(design: Design, top: Optional[str],
                   external_models) -> CompiledArtifacts:
    """Elaborate + levelize ``design``, reusing cached artifacts when safe.

    The elaboration/levelization pair is shared by every generated dialect
    (per-cycle scalar, per-cycle lanes, fused whole-run); dialect compiles
    hang their functions off the returned artifacts.
    """
    per_design = _design_entry(design) if not external_models else None
    cacheable = per_design is not None
    artifacts: Optional[CompiledArtifacts] = None
    if cacheable:
        artifacts = per_design.get(top)
    if artifacts is None:
        if cacheable:
            _STATS["misses"] += 1
        flat, lowered = _elaborate(design, top, external_models)
        artifacts = CompiledArtifacts(flat=flat, lowered=lowered)
        if cacheable:
            per_design[top] = artifacts
    else:
        _STATS["hits"] += 1
    return artifacts


def compiled_artifacts(design: Design, top: Optional[str], external_models,
                       vector: bool) -> CompiledArtifacts:
    """Elaborate + compile ``design``, reusing cached artifacts when safe."""
    artifacts = base_artifacts(design, top, external_models)
    tag = "top" if top is None else top
    if vector:
        if artifacts.comb_vector_fn is None:
            fault_point("engine.compile")
            lowered = artifacts.lowered
            artifacts.comb_vector_fn = compile_comb_vector(
                lowered, source=_sourced(f"{tag}-comb-vector",
                                         lambda: comb_vector_source(lowered)))
            artifacts.clock_vector_fn = compile_clock(
                lowered, vector=True,
                source=_sourced(f"{tag}-clock-vector",
                                lambda: clock_source(lowered, vector=True)))
    else:
        if artifacts.step_fns is None:
            fault_point("engine.compile")
            lowered = artifacts.lowered
            artifacts.step_fns = compile_comb(
                lowered, source=_sourced(f"{tag}-comb-scalar",
                                         lambda: comb_source(lowered)))
            artifacts.clock_fn = compile_clock(
                lowered, vector=False,
                source=_sourced(f"{tag}-clock-scalar",
                                lambda: clock_source(lowered, vector=False)))
    return artifacts


def clear_compile_cache() -> None:
    """Drop every cached compilation (mainly for tests and benchmarks)."""
    _CACHE.clear()


def _cache_stats():
    from repro.obs.cachestats import CacheStats
    return CacheStats(name="sim.compile", capacity=_cache_capacity(),
                      size=len(_CACHE), hits=_STATS["hits"],
                      misses=_STATS["misses"], evictions=_STATS["evictions"])


def _register_stats() -> None:
    from repro.obs.cachestats import register_cache
    register_cache("sim.compile", _cache_stats)


_register_stats()


__all__ = ["CompiledArtifacts", "base_artifacts", "clear_compile_cache",
           "compile_cache_size", "compiled_artifacts", "persist_compiled",
           "set_cache_capacity"]
