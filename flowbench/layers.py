"""Outside-in layer timing for the traced benchmark run.

Each layer is timed by wrapping its public entry point *where its caller
looks it up* (a module attribute or a class attribute), so no program file
changes.  Wrappers keep a stack of open frames: a frame's self time is its
duration minus the time of the wrapped frames nested inside it, so a layer
that calls another layer is not charged for it.  The simulated cycle loop
has no wrapper of its own; its time comes from the program's existing
``sim.run`` tracer span, folded into the same self-time accounting.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

perf_counter = time.perf_counter

#: Layer names in report order; each is reported as ``<layer>_s``.
LAYERS: Tuple[str, ...] = (
    "kernels.build",
    "passes",
    "verilog.lower",
    "verilog.emit",
    "resources",
    "graph.timing",
    "ir.fingerprint",
    "sim.elaborate",
    "sim.levelize",
    "sim.codegen",
    "sim.pycompile",
    "sim.run",
    "store.get",
    "store.put",
    "ir.parse",
    "stimulus",
    "check",
)

#: Layers whose results are kept so their size can be measured off the clock.
_KEPT = ("passes", "verilog.emit", "sim.codegen", "store.put")


def _entry_points() -> List[Tuple[Any, str, str]]:
    """``(owner, attribute, layer)`` for every wrapped entry point."""
    import repro.flow
    import repro.graph.timing
    import repro.ir.parser
    import repro.kernels
    import repro.resources.model
    import repro.sim.engine.cache as cache
    import repro.sim.engine.vector as vector
    import repro.verilog.codegen
    import repro.verilog.emitter
    from repro.ir.pass_manager import PassManager
    from repro.store import ArtifactStore

    return [
        (repro.kernels, "build_kernel", "kernels.build"),
        (PassManager, "run", "passes"),
        (repro.verilog.codegen, "generate_verilog_impl", "verilog.lower"),
        (repro.verilog.emitter, "emit_design", "verilog.emit"),
        (repro.resources.model, "estimate_resources", "resources"),
        (repro.graph.timing, "analyze_function", "graph.timing"),
        (repro.flow, "module_fingerprint", "ir.fingerprint"),
        (cache, "base_artifacts", "sim.elaborate"),
        (cache, "lower_design", "sim.levelize"),
        (cache, "comb_source", "sim.codegen"),
        (cache, "clock_source", "sim.codegen"),
        (cache, "comb_vector_source", "sim.codegen"),
        (vector, "vector_run_source", "sim.codegen"),
        (cache, "compile_comb", "sim.pycompile"),
        (cache, "compile_clock", "sim.pycompile"),
        (cache, "compile_comb_vector", "sim.pycompile"),
        (vector, "compile_vector_run", "sim.pycompile"),
        (ArtifactStore, "get", "store.get"),
        (ArtifactStore, "get_text", "store.get"),
        (ArtifactStore, "put", "store.put"),
        (repro.ir.parser, "parse_module", "ir.parse"),
        (repro.flow, "outputs_match", "check"),
    ]


def _counters() -> Tuple[int, int, int, int]:
    """(store hits, store misses, sim.compile hits, sim.compile misses)."""
    from repro.obs.cachestats import all_cache_stats
    from repro.store import store_counters
    store = store_counters()
    compile_cache = next(stats for stats in all_cache_stats()
                         if stats.name == "sim.compile")
    return (store["hits"], store["misses"],
            compile_cache.hits, compile_cache.misses)


class LayerRecord:
    """One traced op: self seconds per layer, counts, kept results."""

    def __init__(self, self_s: Dict[str, float], calls: Dict[str, int],
                 kept: Dict[str, List[tuple]],
                 counters: Tuple[int, int, int, int]) -> None:
        self.self_s = self_s
        self.calls = calls
        self.kept = kept
        #: Deltas of (store hits, misses, sim.compile hits, misses).
        self.counters = counters

    def seconds(self, layer: str) -> float:
        return self.self_s.get(layer, 0.0)

    def covered(self) -> float:
        return sum(self.self_s.values())

    def sizes(self) -> Dict[str, int]:
        """Counts measured on the kept results, off the clock."""
        written = 0
        for args, kwargs, result in self.kept.get("store.put", ()):
            payload = args[3] if len(args) > 3 else kwargs["payload"]
            if result is not None:
                written += len(payload.encode() if isinstance(payload, str)
                               else payload)

        def total(layer, size):
            return sum(size(result) for _, _, result in self.kept.get(layer, ()))

        return {
            "passes.ops_out": total(
                "passes", lambda module: sum(1 for _ in module.walk())),
            "verilog.emit_bytes": total("verilog.emit",
                                        lambda text: len(text.encode())),
            "sim.codegen_bytes": total("sim.codegen",
                                       lambda text: len(text.encode())),
            "sim.pycompile_calls": self.calls.get("sim.pycompile", 0),
            "store.bytes_written": written,
        }


class LayerTrace:
    """Swaps the layer wrappers in and out and collects one record per op.

    Between :meth:`install` and :meth:`uninstall`, every call through a
    wrapped entry point lands in the current op's record; :meth:`take`
    hands it back.  A wrapper that outlives ``uninstall`` (a Flow keeps the
    stimulus callable it was built with) calls straight through.
    """

    def __init__(self) -> None:
        self.active = False
        self._saved: List[Tuple[Any, str, Any]] = []
        self._stack: List[List[float]] = []
        self._start_counters = (0, 0, 0, 0)
        self._reset()

    def _reset(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: (start, end, layer) of every finished frame, for span folding.
        self.frames: List[Tuple[float, float, str]] = []
        self.kept: Dict[str, List[tuple]] = defaultdict(list)

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn``, timed as ``layer`` while the trace is active."""
        stack = self._stack
        keep = layer in _KEPT

        def timed(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                self.self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                self.frames.append((start, end, layer))
                self.calls[layer] += 1
            if keep:
                self.kept[layer].append((args, kwargs, result))
            return result

        timed.__wrapped__ = fn
        return timed

    def _patch(self, owner: Any, attribute: str, layer: str) -> None:
        original = getattr(owner, attribute)
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(layer, original))

    def install(self) -> None:
        """Wrap every layer entry point and start a fresh op record."""
        for owner, attribute, layer in _entry_points():
            self._patch(owner, attribute, layer)
        import repro.kernels
        build = repro.kernels.build_kernel

        def build_kernel(*args, **kwargs):
            artifacts = build(*args, **kwargs)
            self.instrument(artifacts)
            return artifacts

        self._saved.append((repro.kernels, "build_kernel", build))
        repro.kernels.build_kernel = build_kernel
        self._reset()
        self._start_counters = _counters()
        self.active = True

    def instrument(self, artifacts: Any) -> None:
        """Time a kernel's stimulus generator and reference model, before a
        Flow copies the two callables from its KernelArtifacts."""
        for attribute, layer in (("make_inputs", "stimulus"),
                                 ("reference", "check")):
            if getattr(artifacts, attribute, None) is not None:
                self._patch(artifacts, attribute, layer)

    def uninstall(self) -> None:
        self.active = False
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def fold_spans(self, spans, origin: float, name: str, layer: str) -> None:
        """Charge the tracer's ``name`` spans to ``layer`` as self time,
        taking each span's time out of the innermost wrapped frame that
        encloses it."""
        for span in spans:
            if span["name"] != name:
                continue
            start = origin + span["ts"]
            end = start + span["dur"]
            enclosing = [frame for frame in self.frames
                         if frame[0] <= start and end <= frame[1]]
            if enclosing:
                innermost = max(enclosing, key=lambda frame: frame[0])
                self.self_s[innermost[2]] -= span["dur"]
            self.self_s[layer] += span["dur"]
            self.calls[layer] += 1

    def take(self) -> LayerRecord:
        """The finished op's record (call after :meth:`uninstall`)."""
        end = _counters()
        deltas = tuple(after - before
                       for after, before in zip(end, self._start_counters))
        record = LayerRecord(dict(self.self_s), dict(self.calls),
                             dict(self.kept), deltas)
        self._reset()
        return record
