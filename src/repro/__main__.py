"""``python -m repro`` — the Flow toolchain from the shell.

Subcommands mirror the :class:`repro.flow.Flow` stages:

* ``list``      — registered kernels, simulation engines, pass pipelines.
* ``build``     — kernel → (optimize) → Verilog [+ resource estimate].
* ``simulate``  — one stimulus set, checked against the numpy reference.
* ``sweep``     — N stimulus lanes on the batched engine, all checked.
* ``report``    — the full evaluation harness (Tables 4–6, Figures 1–3).
* ``compose``   — multi-kernel dataflow scenarios: build, schedule and
  simulate a registered :class:`repro.graph.DesignGraph` end to end.
* ``fuzz``      — differential fuzzing: random HIR programs cross-checked
  over pipelines, engines, composition and the Flow stage cache.
* ``stats``     — run a representative workload and report every registered
  cache (hit rates, capacities) plus the DSE exploration and resilience
  counters.
* ``store``     — inspect and maintain the persistent artifact store
  (``stats``/``verify``/``gc``/``clear``); see :mod:`repro.store`.
* ``serve``     — run the flow service: an HTTP front end on the artifact
  store that coalesces identical concurrent requests and shards
  independent ones across a supervised worker pool (:mod:`repro.serve`).
* ``remote``    — the same verbs as the local CLI, executed by a running
  ``repro serve`` instance (``build``/``simulate``/``sweep``/``compose``
  plus ``stats``/``health``/``shutdown``).

Observability: ``--trace FILE`` (on build/simulate/sweep/compose/stats)
writes a Chrome ``trace_event`` JSON of the whole run — load it in
ui.perfetto.dev or chrome://tracing.  ``--profile`` (simulate/sweep/compose)
collects and prints the per-op simulation profile.

Robustness: every ``REPRO_*`` variable is validated before dispatch (a typo
exits with a one-line error instead of silently reverting to a default), and
a ``REPRO_FAULT_PLAN`` fault-injection plan (see :mod:`repro.resilience`)
applies to the whole command.  File outputs (``-o``, ``--trace``) are
published atomically — an interrupted command never leaves a torn file.

Kernel size parameters are passed as repeated ``-p key=value`` options::

    python -m repro build gemm -p size=8 --resources
    python -m repro simulate transpose -p size=8 --engine compiled
    python -m repro sweep gemm -p size=4 --seeds 8
    python -m repro compose --list
    python -m repro compose gemm_pipeline --seed 3 --schedule
    python -m repro report --quick --validate
    python -m repro fuzz --seed 0 --count 100 --max-ops 40
    python -m repro serve --port 8731 --workers 4
    python -m repro remote build gemm -p size=8 --url http://127.0.0.1:8731
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

#: ``--engine`` help, shared by every subcommand that simulates locally.
ENGINE_HELP = ("simulation engine (interpreted, compiled, differential or "
               "vector; default: $REPRO_SIM_ENGINE or vector)")


def _parse_params(pairs: Optional[List[str]]) -> Dict[str, int]:
    parameters: Dict[str, int] = {}
    for pair in pairs or []:
        key, separator, value = pair.partition("=")
        if not separator or not key:
            raise SystemExit(f"bad -p {pair!r}: expected key=value")
        try:
            parameters[key] = int(value)
        except ValueError:
            raise SystemExit(f"bad -p {pair!r}: value must be an integer")
    return parameters


def _flow_config(arguments):
    from repro.flow import FlowConfig

    overrides = {}
    if getattr(arguments, "engine", None) is not None:
        overrides["engine"] = arguments.engine
    if getattr(arguments, "pipeline", None) is not None:
        overrides["pipeline"] = arguments.pipeline
    if getattr(arguments, "trace", None):
        overrides["trace"] = True
    if getattr(arguments, "profile", False):
        overrides["profile"] = True
    # Environment REPRO_* variables participate via from_env, giving the CLI
    # the same precedence chain as the library: flag > env > default.
    return FlowConfig.from_env(**overrides)


def _kernel_flow(arguments):
    from repro.flow import Flow

    return Flow.from_kernel(arguments.kernel,
                            config=_flow_config(arguments),
                            **_parse_params(arguments.param))


def _cmd_list(arguments) -> int:
    from repro.flow import PIPELINES, FlowConfig
    from repro.graph import scenario_names
    from repro.kernels import kernel_names
    from repro.sim import available_engines

    print("kernels  :", ", ".join(kernel_names()))
    print("scenarios:", ", ".join(scenario_names()))
    print("engines  :", ", ".join(available_engines()),
          f"(default: {FlowConfig().resolve_engine()})")
    print("pipelines:", ", ".join(PIPELINES))
    return 0


def _cmd_build(arguments) -> int:
    from repro.store.io import atomic_write_text

    flow = _kernel_flow(arguments)
    verilog = flow.verilog()
    if arguments.output:
        atomic_write_text(arguments.output, verilog.value.text)
        print(f"wrote {len(verilog.value.text.splitlines())} lines of Verilog "
              f"to {arguments.output}")
    else:
        print(verilog.value.text)
    if arguments.resources:
        print(f"\nresources: {flow.resources().value}", file=sys.stderr)
    print(f"\n{flow.report()}", file=sys.stderr)
    return 0


def _print_profile(profile) -> None:
    if profile is not None:
        print(profile.render(), file=sys.stderr)


def _cmd_simulate(arguments) -> int:
    flow = _kernel_flow(arguments)
    artifact = flow.validate(seed=arguments.seed)
    outcome = artifact.value
    status = "ok" if outcome.ok else "MISMATCH"
    print(f"{outcome.name}: engine={outcome.engine} seed={arguments.seed} "
          f"cycles={outcome.cycles} {status}")
    if arguments.profile and outcome.run is not None:
        _print_profile(outcome.run.profile)
    print(flow.report(), file=sys.stderr)
    return 0 if outcome.ok else 1


def _check_batch_lanes(flow, seeds, outcome) -> int:
    """Validate and print one batched lane per seed; returns the failure
    count (shared by the ``sweep`` and ``compose --seeds`` subcommands)."""
    from repro.flow import outputs_match

    failures = 0
    for lane, inputs in enumerate(outcome.inputs_per_lane):
        ok = bool(outcome.run.done[lane])
        if ok and flow.reference is not None:
            ok = outputs_match(flow.reference(inputs),
                               lambda name: outcome.memory_array(name, lane),
                               flow.output_warmup)
        failures += 0 if ok else 1
        print(f"lane {lane:>3}: seed={seeds[lane]} "
              f"cycles={int(outcome.run.cycles[lane])} "
              f"{'ok' if ok else 'MISMATCH'}")
    return failures


def _cmd_sweep(arguments) -> int:
    flow = _kernel_flow(arguments)
    seeds = list(range(arguments.seeds))
    artifact = flow.simulate_batch(seeds)
    failures = _check_batch_lanes(flow, seeds, artifact.value)
    if arguments.profile and artifact.value.profiles:
        print("lane 0 profile:", file=sys.stderr)
        _print_profile(artifact.value.profiles[0])
    rate = len(seeds) / artifact.seconds if artifact.seconds > 0 else 0.0
    print(f"{len(seeds)} lanes in {artifact.seconds:.2f}s "
          f"({rate:.1f} scenarios/s), {failures} mismatching",
          file=sys.stderr)
    return 0 if failures == 0 else 1


def _cmd_compose(arguments) -> int:
    from repro.flow import Flow
    from repro.graph import build_scenario, scenario_names

    if arguments.list or arguments.scenario is None:
        if arguments.scenario is None and not arguments.list:
            raise SystemExit(
                "compose needs a scenario name (or --list); registered: "
                + ", ".join(scenario_names()))
        print("scenarios:", ", ".join(scenario_names()))
        return 0
    graph = build_scenario(arguments.scenario, **_parse_params(arguments.param))
    flow = Flow.from_graph(graph, config=_flow_config(arguments))
    artifacts = flow.compose().value
    if arguments.schedule:
        print(artifacts.describe_schedule(), file=sys.stderr)
    if arguments.seeds:
        seeds = list(range(arguments.seeds))
        outcome = flow.simulate_batch(seeds).value
        failures = _check_batch_lanes(flow, seeds, outcome)
        if arguments.profile and outcome.profiles:
            print("lane 0 profile:", file=sys.stderr)
            _print_profile(outcome.profiles[0])
        print(flow.report(), file=sys.stderr)
        return 0 if failures == 0 else 1
    validated = flow.validate(seed=arguments.seed).value
    if arguments.profile and validated.run is not None:
        _print_profile(validated.run.profile)
    status = "ok" if validated.ok else "MISMATCH"
    print(f"{validated.name}: {len(graph.nodes)} nodes, "
          f"{len(graph.edges)} stream edges, engine={validated.engine} "
          f"seed={arguments.seed} cycles={validated.cycles} {status}")
    print(flow.report(), file=sys.stderr)
    return 0 if validated.ok else 1


def _cmd_report(arguments) -> int:
    from repro.evaluation import runner

    results = runner.run_all(quick=arguments.quick,
                             validate=arguments.validate,
                             timing=arguments.timing)
    print(results.render())
    return 0


def _cmd_fuzz(arguments) -> int:
    from repro.fuzz import DEFAULT_OUT_DIR, ORACLES, run_fuzz

    out_dir = arguments.out_dir or DEFAULT_OUT_DIR
    oracles = tuple(ORACLES)
    if arguments.oracles:
        oracles = tuple(name.strip()
                        for name in arguments.oracles.split(",") if name.strip())
        unknown = sorted(set(oracles) - set(ORACLES))
        if unknown:
            raise SystemExit(
                f"unknown oracle(s) {', '.join(unknown)}; "
                f"choose from {', '.join(ORACLES)}")
    report = run_fuzz(seed=arguments.seed,
                      count=arguments.count,
                      max_ops=arguments.max_ops,
                      out_dir=None if arguments.no_repro else out_dir,
                      oracles=oracles,
                      shrink_failures=not arguments.no_shrink,
                      log=lambda line: print(line, file=sys.stderr))
    print(report.render())
    return 0 if report.ok else 1


def _cmd_stats(arguments) -> int:
    """Exercise every cache with a representative workload, then report.

    The caches (Flow stages, simulator compile cache, DSE schedule memo)
    are in-process, so ``stats`` runs its own small build → validate →
    sweep → HLS-compile workload — twice where repetition is what produces
    hits — and then renders the registry.
    """
    from repro.flow import Flow
    from repro.hls import HLSOptions, compile_program
    from repro.obs.cachestats import ensure_builtin_caches, render_cache_report
    from repro.obs.export import stats_tree
    from repro.obs.tracer import TRACER

    ensure_builtin_caches()
    TRACER.enable()
    config = _flow_config(arguments).with_(trace=True)
    flow = Flow.from_kernel(arguments.kernel, config=config,
                            **_parse_params(arguments.param))
    with TRACER.span("stats.workload", cat="cli", kernel=arguments.kernel):
        flow.validate(seed=0)
        flow.validate(seed=1)            # hits every compile stage
        flow.simulate_batch(range(arguments.seeds))
        # Second sweep re-uses the engine's compiled artifacts.
        flow.simulate_batch(range(arguments.seeds))
        artifacts = flow.source
        if getattr(artifacts, "hls_program", None) is not None:
            options = HLSOptions()
            # Second compile re-explores the same design points: the DSE
            # schedule memo serves them.
            compile_program(artifacts.hls_program, artifacts.hls_function,
                            options=options)
            compile_program(artifacts.hls_program, artifacts.hls_function,
                            options=options)
    print(f"workload: {arguments.kernel} x (validate x2 + "
          f"{arguments.seeds}-lane sweep + HLS compile x2)\n")
    print(render_cache_report())
    dse_counters = {name: value
                    for name, value in sorted(TRACER.counters.items())
                    if name.startswith("dse.")}
    if dse_counters:
        print("\nDSE counters:")
        for name, value in dse_counters.items():
            print(f"  {name:<24} {int(value)}")
    _print_resilience_counters()
    if arguments.tree:
        print(f"\n{stats_tree(TRACER)}")
    return 0


def _print_resilience_counters() -> None:
    """Store activity and fault/recovery counters (always-on, process-wide)."""
    from repro.resilience import resilience_counters
    from repro.store.store import store_counters

    store = {f"store.{name}": value
             for name, value in sorted(store_counters().items()) if value}
    recovery = dict(sorted(resilience_counters().items()))
    if store:
        print("\nstore counters:")
        for name, value in store.items():
            print(f"  {name:<24} {value}")
    if recovery:
        print("\nresilience counters:")
        for name, value in recovery.items():
            print(f"  {name:<24} {value}")


def _cmd_store(arguments) -> int:
    from repro.store import default_store, get_store

    store = (get_store(arguments.dir) if arguments.dir
             else default_store())
    if store is None:
        print("error: no artifact store configured; set REPRO_STORE_DIR or "
              "pass --dir", file=sys.stderr)
        return 2
    action = arguments.action
    if action == "stats":
        print(store.stats().render())
        return 0
    if action == "verify":
        report = store.verify()
        print(report.render())
        return 0 if report.ok else 1
    if action == "gc":
        if arguments.max_bytes is None and arguments.max_blobs is None:
            print("error: gc needs --max-bytes and/or --max-blobs",
                  file=sys.stderr)
            return 2
        print(store.gc(max_bytes=arguments.max_bytes,
                       max_blobs=arguments.max_blobs).render())
        return 0
    removed = store.clear()
    print(f"cleared {removed} blob(s) from {store.root}")
    return 0


def _cmd_serve(arguments) -> int:
    """Run the flow service until SIGTERM/SIGINT (or ``POST /v1/shutdown``).

    The bound URL is printed to stdout first (one parseable line), so
    launchers using ``--port 0`` can discover the ephemeral port.  Shutdown
    is always clean: stop accepting, drain the shard pool, then print the
    serve counters to stderr.
    """
    import signal
    import threading

    from repro.serve import ServeServer

    server = ServeServer(host=arguments.host, port=arguments.port,
                         workers=arguments.workers,
                         timeout=arguments.timeout)
    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    server.start()
    store = "off" if server.store is None else server.store.root
    print(f"serving on {server.url}", flush=True)
    print(f"workers={server.workers} timeout="
          f"{server.timeout if server.timeout is not None else 'none'} "
          f"store={store}", file=sys.stderr, flush=True)
    try:
        while not stop.is_set() and server._serve_thread.is_alive():
            stop.wait(0.2)
    finally:
        server.stop()
        counters = {name: value for name, value in
                    sorted(server.counters.items()) if value}
        summary = ", ".join(f"{name.removeprefix('serve.')}={value}"
                            for name, value in counters.items()) or "idle"
        print(f"serve: shut down cleanly ({summary})", file=sys.stderr)
    return 0


def _cmd_remote(arguments) -> int:
    """Mirror the local CLI verbs through a running ``repro serve``."""
    import json as _json

    from repro.serve import ServeClient, ServeRequest
    from repro.store.io import atomic_write_text

    client = ServeClient(arguments.url)
    action = arguments.action
    if action in ("stats", "health"):
        payload = client.stats() if action == "stats" else client.health()
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if action == "shutdown":
        client.shutdown()
        print(f"shutdown requested at {client.url}")
        return 0
    if arguments.target is None:
        raise SystemExit(f"remote {action} needs a target name")
    request = ServeRequest.make(
        action, arguments.target, _parse_params(arguments.param),
        seed=arguments.seed,
        seeds=arguments.seeds if action == "sweep" else None,
        pipeline=arguments.pipeline, engine=arguments.engine)
    response = client.request(request)
    if not response.ok:
        error = response.error or {}
        print(f"error: [{error.get('type', 'unknown')}] "
              f"{error.get('message', 'no message')}", file=sys.stderr)
        return 1
    origin = (f"{response.provenance} shard={response.shard} "
              f"key={response.key[:12]} {response.seconds:.2f}s")
    result = response.result()
    if action == "build":
        text = result["verilog"]
        if arguments.output:
            atomic_write_text(arguments.output, text)
            print(f"wrote {len(text.splitlines())} lines of Verilog to "
                  f"{arguments.output}")
        else:
            print(text)
        print(f"{request.describe()}: resources={result['resources']} "
              f"({origin})", file=sys.stderr)
        return 0
    if action == "sweep":
        for lane in result["lanes"]:
            print(f"lane {lane['seed']:>3}: cycles={lane['cycles']} "
                  f"{'ok' if lane['ok'] else 'MISMATCH'}")
        print(f"{request.describe()}: {len(result['lanes'])} lanes, "
              f"{result['mismatches']} mismatching ({origin})",
              file=sys.stderr)
        return 0 if result["mismatches"] == 0 else 1
    # simulate / compose
    status = "ok" if result["ok"] else "MISMATCH"
    print(f"{request.describe()}: engine={result['engine']} "
          f"seed={result['seed']} cycles={result['cycles']} {status}")
    print(origin, file=sys.stderr)
    return 0 if result["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="The HIR flow: build, optimize, codegen, simulate.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_kernel_options(sub, engine=True):
        sub.add_argument("kernel", help="registered kernel name (see `list`)")
        sub.add_argument("-p", "--param", action="append", metavar="KEY=VALUE",
                         help="kernel size parameter (repeatable)")
        sub.add_argument("--pipeline", default=None,
                         choices=("optimize", "verify", "none", "legacy"),
                         help="pass pipeline (default: optimize)")
        if engine:
            sub.add_argument("--engine", default=None, help=ENGINE_HELP)

    def add_obs_options(sub, profile=True):
        sub.add_argument("--trace", metavar="FILE", default=None,
                         help="write a Chrome trace_event JSON of this run "
                              "(open in ui.perfetto.dev)")
        if profile:
            sub.add_argument("--profile", action="store_true",
                             help="collect and print the simulation profile")

    list_parser = subparsers.add_parser(
        "list", help="registered kernels, engines and pipelines")
    list_parser.set_defaults(handler=_cmd_list)

    build = subparsers.add_parser(
        "build", help="compile a kernel to Verilog")
    add_kernel_options(build)
    build.add_argument("-o", "--output", default=None,
                       help="write the Verilog here instead of stdout")
    build.add_argument("--resources", action="store_true",
                       help="append an FPGA resource estimate")
    add_obs_options(build, profile=False)
    build.set_defaults(handler=_cmd_build)

    simulate = subparsers.add_parser(
        "simulate", help="simulate one stimulus set and check it")
    add_kernel_options(simulate)
    simulate.add_argument("--seed", type=int, default=0,
                          help="stimulus seed (default 0)")
    add_obs_options(simulate)
    simulate.set_defaults(handler=_cmd_simulate)

    # No --engine here: a sweep always runs the batched engine.
    sweep = subparsers.add_parser(
        "sweep", help="run N seeds on the batched engine")
    add_kernel_options(sweep, engine=False)
    sweep.add_argument("--seeds", type=int, default=8,
                       help="number of stimulus lanes (default 8)")
    add_obs_options(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    compose = subparsers.add_parser(
        "compose",
        help="build and simulate a multi-kernel dataflow scenario")
    compose.add_argument("scenario", nargs="?", default=None,
                         help="registered scenario name (see --list)")
    compose.add_argument("--list", action="store_true",
                         help="list registered scenarios and exit")
    compose.add_argument("-p", "--param", action="append", metavar="KEY=VALUE",
                         help="scenario size parameter (repeatable)")
    compose.add_argument("--pipeline", default=None,
                         choices=("optimize", "verify", "none", "legacy"),
                         help="pass pipeline (default: optimize)")
    compose.add_argument("--engine", default=None, help=ENGINE_HELP)
    compose.add_argument("--seed", type=int, default=0,
                         help="stimulus seed for the validation run")
    compose.add_argument("--seeds", type=int, default=None,
                         help="run N lanes on the batched engine instead")
    compose.add_argument("--schedule", action="store_true",
                         help="print the static node schedule")
    add_obs_options(compose)
    compose.set_defaults(handler=_cmd_compose)

    report = subparsers.add_parser(
        "report", help="regenerate the paper's tables and figures")
    report.add_argument("--quick", action="store_true",
                        help="reduced kernel sizes")
    report.add_argument("--validate", action="store_true",
                        help="cross-check every kernel against its reference")
    report.add_argument("--timing", action="store_true",
                        help="append compile-timing breakdowns")
    report.set_defaults(handler=_cmd_report)

    fuzz = subparsers.add_parser(
        "fuzz",
        help="differential fuzzing: random programs over every oracle")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="first program seed (default 0)")
    fuzz.add_argument("--count", type=int, default=100,
                      help="number of programs to generate (default 100)")
    fuzz.add_argument("--max-ops", type=int, default=40,
                      help="compute-op budget per program (default 40)")
    fuzz.add_argument("--out-dir", default=None,
                      help="directory for minimized reproducer scripts "
                           "(default fuzz-failures/)")
    fuzz.add_argument("--oracles", default=None,
                      help="comma-separated subset of: pipeline, engines, "
                           "compose, flow-cache, profile, faults "
                           "(default: all)")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="report raw failures without minimizing them")
    fuzz.add_argument("--no-repro", action="store_true",
                      help="do not write reproducer scripts")
    fuzz.set_defaults(handler=_cmd_fuzz)

    stats = subparsers.add_parser(
        "stats",
        help="run a representative workload and report every cache")
    stats.add_argument("kernel", nargs="?", default="gemm",
                       help="kernel to exercise the caches with "
                            "(default gemm)")
    stats.add_argument("-p", "--param", action="append", metavar="KEY=VALUE",
                       help="kernel size parameter (repeatable)")
    stats.add_argument("--engine", default=None, help=ENGINE_HELP)
    stats.add_argument("--seeds", type=int, default=4,
                       help="batched-sweep lanes in the workload (default 4)")
    stats.add_argument("--tree", action="store_true",
                       help="append the aggregated span tree")
    add_obs_options(stats, profile=False)
    stats.set_defaults(handler=_cmd_stats)

    store = subparsers.add_parser(
        "store",
        help="inspect and maintain the persistent artifact store")
    store.add_argument("action",
                       choices=("stats", "verify", "gc", "clear"),
                       help="stats: contents summary; verify: checksum every "
                            "blob (quarantining corrupt ones); gc: evict "
                            "least-recently-used blobs down to a budget; "
                            "clear: remove every blob")
    store.add_argument("--dir", default=None,
                       help="store directory (default: $REPRO_STORE_DIR)")
    store.add_argument("--max-bytes", type=int, default=None,
                       help="gc: keep at most this many payload bytes")
    store.add_argument("--max-blobs", type=int, default=None,
                       help="gc: keep at most this many blobs")
    store.set_defaults(handler=_cmd_store)

    serve = subparsers.add_parser(
        "serve",
        help="run the flow service: coalescing, sharded HTTP front end "
             "on the artifact store")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port; 0 (default) picks a free port — the "
                            "bound URL is printed on stdout")
    serve.add_argument("--workers", type=int, default=None,
                       help="worker shards (default $REPRO_SERVE_WORKERS "
                            "or 4)")
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-request timeout in seconds (default "
                            "$REPRO_SERVE_TIMEOUT or unlimited)")
    serve.set_defaults(handler=_cmd_serve)

    remote = subparsers.add_parser(
        "remote",
        help="run CLI verbs against a `repro serve` instance")
    remote.add_argument("action",
                        choices=("build", "simulate", "sweep", "compose",
                                 "stats", "health", "shutdown"),
                        help="service verb (build/simulate/sweep/compose "
                             "mirror the local CLI)")
    remote.add_argument("target", nargs="?", default=None,
                        help="kernel (build/simulate/sweep) or scenario "
                             "(compose) name")
    remote.add_argument("-p", "--param", action="append", metavar="KEY=VALUE",
                        help="kernel/scenario size parameter (repeatable)")
    remote.add_argument("--seed", type=int, default=0,
                        help="stimulus seed (simulate/compose; default 0)")
    remote.add_argument("--seeds", type=int, default=8,
                        help="sweep: batched stimulus lanes (default 8)")
    remote.add_argument("--pipeline", default=None,
                        choices=("optimize", "verify", "none", "legacy"),
                        help="pass pipeline override")
    remote.add_argument("--engine", default=None,
                        help="simulation engine override")
    remote.add_argument("--url", default=None,
                        help="server URL (default $REPRO_SERVE_URL)")
    remote.add_argument("-o", "--output", default=None,
                        help="build: write the Verilog here instead of "
                             "stdout")
    remote.set_defaults(handler=_cmd_remote)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse and dispatch; tool errors become one-line messages, not
    tracebacks (the contract ``tests/cli`` pins down)."""
    from repro.envcheck import environment_error
    from repro.ir.errors import IRError
    from repro.kernels import UnknownKernelError
    from repro.resilience import InjectedFault

    arguments = build_parser().parse_args(argv)
    problem = environment_error()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    trace_path = getattr(arguments, "trace", None)
    if trace_path:
        # Enable before dispatch so every span of the command — Flow
        # stages, passes, DSE, simulation — lands in one trace.
        from repro.obs.tracer import TRACER
        TRACER.enable()
    try:
        return arguments.handler(arguments)
    except UnknownKernelError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (IRError, InjectedFault) as error:
        # FlowError, ScheduleError, SimulationError... — user-facing tool
        # errors with curated messages — and faults REPRO_FAULT_PLAN
        # injected; unexpected exceptions still traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if trace_path:
            from repro.obs.export import write_chrome_trace
            write_chrome_trace(trace_path)
            print(f"wrote Chrome trace to {trace_path} "
                  f"(open in ui.perfetto.dev)", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
