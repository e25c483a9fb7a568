"""Request execution: one :class:`~repro.serve.protocol.ServeRequest` → one
deterministic payload, through :class:`repro.flow.Flow`.

This is the only module of the service that runs the toolchain.  Its single
entry point, :func:`execute`, is handed to the shard pool by the server; the
contract that makes coalescing and the store tier sound is **determinism**:
for a fixed request (and fixed toolchain), the returned payload is
byte-identical run to run, process to process.  That is why payloads carry
no wall-clock data (the envelope does), why arrays are rendered through
``tolist()`` (plain ints), and why the sweep verb derives its lanes from
``range(seeds)`` rather than anything ambient.

Because the Flow underneath reads through :mod:`repro.store`, a warm store
makes `execute` cheap even when the serve-level payload blob is absent: the
optimized-IR/Verilog/resource blobs still short-circuit the expensive
stages.  The serve tier above this module only adds the final step —
memoizing the *whole response*.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Tuple

from repro.serve.protocol import ServeRequest, canonical_payload

__all__ = ["ExecutionResult", "execute"]


class ExecutionResult:
    """What one execution produced: canonical payload + design facts."""

    __slots__ = ("payload", "fingerprint", "seconds")

    def __init__(self, payload: str, fingerprint: str, seconds: float) -> None:
        self.payload = payload
        self.fingerprint = fingerprint
        self.seconds = seconds


def _flow_for(request: ServeRequest, base_config):
    """A Flow for the request's target under the server config + overrides."""
    from repro.flow import Flow
    overrides: Dict[str, Any] = {}
    if request.pipeline is not None:
        overrides["pipeline"] = request.pipeline
    if request.engine is not None:
        overrides["engine"] = request.engine
    config = base_config.with_(**overrides) if overrides else base_config
    params = dict(request.params)
    if request.verb == "compose":
        return Flow.from_scenario(request.target, config=config, **params)
    return Flow.from_kernel(request.target, config=config, **params)


def _output_arrays(flow, run) -> Dict[str, Any]:
    """Simulated contents of every writable interface, as plain lists."""
    return {name: run.memory_array(name).tolist()
            for name, memref_type in sorted(flow.interfaces.items())
            if memref_type.can_write}


def _build_payload(request: ServeRequest, flow) -> Tuple[Dict[str, Any], str]:
    verilog = flow.verilog()
    resources = flow.resources().value
    payload = {
        "verb": "build",
        "target": request.target,
        "params": dict(request.params),
        "verilog": verilog.value.text,
        "statistics": {str(k): int(v)
                       for k, v in sorted(verilog.value.statistics.items())},
        "resources": {"lut": resources.lut, "ff": resources.ff,
                      "dsp": resources.dsp, "bram": resources.bram},
    }
    return payload, verilog.fingerprint


def _simulate_payload(request: ServeRequest, flow) -> Tuple[Dict[str, Any], str]:
    artifact = flow.validate(seed=request.seed)
    outcome = artifact.value
    payload = {
        "verb": request.verb,
        "target": request.target,
        "params": dict(request.params),
        "seed": request.seed,
        "engine": outcome.engine,
        "cycles": int(outcome.cycles),
        "ok": bool(outcome.ok),
        "outputs": _output_arrays(flow, outcome.run),
    }
    if request.verb == "compose":
        payload["nodes"] = len(flow.graph.nodes)
        payload["edges"] = len(flow.graph.edges)
    return payload, artifact.fingerprint


def _sweep_payload(request: ServeRequest, flow) -> Tuple[Dict[str, Any], str]:
    from repro.flow import outputs_match
    seeds = list(range(request.seeds if request.seeds is not None else 8))
    artifact = flow.simulate_batch(seeds)
    outcome = artifact.value
    lanes = []
    for lane, inputs in enumerate(outcome.inputs_per_lane):
        ok = bool(outcome.run.done[lane])
        if ok and flow.reference is not None:
            ok = outputs_match(flow.reference(inputs),
                               lambda name: outcome.memory_array(name, lane),
                               flow.output_warmup)
        lanes.append({"seed": seeds[lane],
                      "cycles": int(outcome.run.cycles[lane]),
                      "ok": ok})
    payload = {
        "verb": "sweep",
        "target": request.target,
        "params": dict(request.params),
        "lanes": lanes,
        "mismatches": sum(0 if lane["ok"] else 1 for lane in lanes),
    }
    return payload, artifact.fingerprint


def execute(request: ServeRequest, config=None) -> ExecutionResult:
    """Run ``request`` through a Flow; returns the canonical payload.

    ``config`` is the server's base :class:`~repro.flow.FlowConfig` (request
    ``pipeline``/``engine`` overrides are applied on top; ``None`` means
    ``FlowConfig.from_env()``).  Raises the toolchain's typed errors
    (:class:`~repro.ir.errors.IRError` subclasses,
    :class:`~repro.kernels.UnknownKernelError`) — the server turns them
    into typed error responses.
    """
    from repro.flow import FlowConfig
    if config is None:
        config = FlowConfig.from_env()
    start = time.perf_counter()
    flow = _flow_for(request, config)
    if request.verb == "build":
        payload, fingerprint = _build_payload(request, flow)
    elif request.verb == "sweep":
        payload, fingerprint = _sweep_payload(request, flow)
    else:  # simulate / compose: a checked single-stimulus validation run
        payload, fingerprint = _simulate_payload(request, flow)
    return ExecutionResult(payload=canonical_payload(payload),
                           fingerprint=fingerprint,
                           seconds=time.perf_counter() - start)
