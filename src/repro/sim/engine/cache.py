"""Per-design compilation cache.

Elaboration, levelization and Python code generation are pure functions of
the design AST (plus the ``top`` override), so their results are shared
across simulator instances: re-running the same generated design — a
multi-seed sweep, a batched run after a single run, the differential
harness's second engine — pays compilation once.  Entries are keyed weakly on
the :class:`~repro.verilog.ast.Design` object, so a design's artifacts die
with it.  The fused run (:mod:`repro.sim.engine.vector`) is cached the same
way (:func:`memoized`) on what it was given: a Design, or a Flow's lazily
lowered :class:`repro.flow.VerilogArtifact`, which a warm store never lowers.

Designs with external (black-box) models are never cached: their elaboration
instantiates stateful behavioural models that must stay private to one
simulator.

The cache is bounded: long batched sweeps compile many distinct designs, and
without a cap every compiled artifact would stay alive for as long as its
design object does.  The least-recently-used design entries are evicted once
the cache holds more than ``REPRO_SIM_CACHE_SIZE`` designs (read at call
time; default 64; 0 disables caching entirely).  Eviction only drops the
cache's references — simulators already built from the artifacts keep
working.

Under :func:`persist_compiled`, every generated program is also read through
the artifact store's ``simcode`` tier as one marshal'd module code object
(:func:`compiled_program`); the fused run's blob pairs it with the run's
simulator image.  For the step functions and the fused run that module holds
shapes plus an instance table (:mod:`repro.sim.engine.codegen`), and the
``compile_*`` loader that turns it into functions runs as the store's
decoder, so a stored code object (or image) that is not the expected program
counts as a corrupt blob.
"""

from __future__ import annotations

import contextvars
import importlib.util
import marshal
import os
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from types import CodeType
from typing import Any, Callable, List, Optional, Tuple

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


def _cache_capacity() -> int:
    """``REPRO_SIM_CACHE_SIZE``, read at call time (default 64)."""
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


def _design_entry(design: Any) -> Optional[dict]:
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


def memoized(design: Any, key: Any, build: Callable[[], Any]) -> Any:
    """``build()``, cached under ``key`` for as long as ``design`` lives.

    ``design`` is a :class:`~repro.verilog.ast.Design` or, for the fused
    run, the lazily lowered :class:`repro.flow.VerilogArtifact` that stands
    in for one.  A ``build`` that raises caches nothing.
    """
    entry = _design_entry(design)
    if entry is None:
        return build()
    value = entry.get(key)
    if value is None:
        _STATS["misses"] += 1
        value = entry[key] = build()
    else:
        _STATS["hits"] += 1
    return value


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


#: When set (by :func:`persist_compiled`), generated simulator code objects
#: are loaded from / published to this ``(ArtifactStore, design key)`` pair,
#: so a later process skips code generation and ``compile()`` for a design it
#: has seen.
_PERSIST: "contextvars.ContextVar[Optional[Tuple[object, str]]]" = \
    contextvars.ContextVar("repro_sim_persist", default=None)

#: The running interpreter's bytecode magic, folded into every ``simcode``
#: key: a blob marshal'd by another bytecode version is never looked up.
_BYTECODE = importlib.util.MAGIC_NUMBER.hex()

#: What ``marshal.loads`` raises on bytes it cannot decode, and what a
#: ``compile_*`` loader raises on a code object that is not its program.
_UNMARSHALABLE = (ValueError, EOFError, TypeError)


@contextmanager
def persist_compiled(store, key: str):
    """Persist generated simulator code objects under ``key`` for this block.

    ``store`` is a :class:`repro.store.ArtifactStore` (or ``None`` for a
    no-op); ``key`` must fingerprint the design *content* (the Flow passes
    its design key).  Code objects are stored marshal'd under kind
    ``simcode``, so a new process on a warm store neither generates nor
    ``compile()``-s simulator code (:func:`compiled_program`).
    """
    if store is None:
        yield
        return
    token = _PERSIST.set((store, key))
    try:
        yield
    finally:
        _PERSIST.reset(token)


def _code_object(payload: bytes) -> CodeType:
    code = marshal.loads(payload)
    if not isinstance(code, CodeType):
        raise TypeError(f"expected a code object, got {type(code).__name__}")
    return code


def compiled_program(top: Optional[str], name: str,
                     generate: Callable[[], Any],
                     load: Callable[[Any], Tuple[Any, Any]],
                     unpack: Callable[[bytes], Any] = _code_object) -> Any:
    """What ``load`` (a ``compile_*`` call) builds from one generated
    module, read through the persist store's ``simcode`` tier.

    ``load`` receives ``generate()`` on a miss (or with no store) and, on a
    store hit, what ``unpack`` decodes the payload into (by default its
    code object).  It returns ``(stored, value)``; ``stored`` is what a miss
    publishes marshal'd: the module's code object, or for the fused run its
    ``(code, image)`` pair (:mod:`repro.sim.engine.vector`).  So a hit
    generates and compiles nothing.  A checksum-valid blob that ``unpack``
    cannot decode, or whose contents ``load`` rejects as not this program,
    is corrupt (:meth:`repro.store.ArtifactStore.read_through`):
    quarantined, rebuilt and re-published.  On a miss the same rejection
    propagates — it is a code generation bug.
    """
    fault_point("engine.compile")
    context = _PERSIST.get()
    if context is None:
        return load(generate())[1]
    store, base = context
    tag = "top" if top is None else top
    return store.read_through(
        "simcode", f"{base}-{tag}-{name}-{_BYTECODE}",
        lambda: load(generate()),
        lambda built: marshal.dumps(built[0]),
        lambda payload: load(unpack(payload)),
        _UNMARSHALABLE)[1]


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
    def build() -> CompiledArtifacts:
        return CompiledArtifacts(*_elaborate(design, top, external_models))

    return build() if external_models else memoized(design, top, build)


def compiled_artifacts(design: Design, top: Optional[str], external_models,
                       vector: bool) -> CompiledArtifacts:
    """Elaborate + compile ``design`` for a per-cycle engine, reusing cached
    artifacts when safe.

    Each compiled slot is filled and checked on its own, so a compile that
    raises leaves its slot empty for the next call to retry.  The scalar
    step functions are the ones the fused vector engine also runs
    (:mod:`repro.sim.engine.vector`), from the same ``simcode`` blob.
    """
    artifacts = base_artifacts(design, top, external_models)
    lowered = artifacts.lowered
    if not vector:
        if artifacts.step_fns is None:
            artifacts.step_fns = compiled_program(
                top, "comb-scalar", lambda: comb_source(lowered),
                lambda source: compile_comb(lowered.num_assigns, source))
        if artifacts.clock_fn is None:
            artifacts.clock_fn = compiled_program(
                top, "clock-scalar", lambda: clock_source(lowered),
                lambda source: compile_clock(lowered, source))
        return artifacts
    if artifacts.comb_vector_fn is None:
        artifacts.comb_vector_fn = compiled_program(
            top, "comb-vector", lambda: comb_vector_source(lowered),
            lambda source: compile_comb_vector(lowered, source))
    if artifacts.clock_vector_fn is None:
        artifacts.clock_vector_fn = compiled_program(
            top, "clock-vector", lambda: clock_source(lowered, vector=True),
            lambda source: compile_clock(lowered, source))
    return artifacts


def clear_compile_cache() -> None:
    """Drop every cached compilation, fused runs and their simulator images
    included (mainly for tests and benchmarks)."""
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
           "compile_cache_size", "compiled_artifacts", "compiled_program",
           "memoized", "persist_compiled"]
