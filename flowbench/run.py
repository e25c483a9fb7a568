#!/usr/bin/env python3
"""The repository benchmark: one named Flow workload, measured end to end.

    python3 flowbench/run.py --workload cold --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  The script re-executes itself once under
a controlled environment (``REPRO_*`` scrubbed, ``PYTHONHASHSEED=0``,
single-threaded numeric libraries, temporary files inside the checkout), so
interpreter start and imports are paid inside the measured set-up.

A run sets the workload up ``SETUP_REPS`` times (the last set-up is the one
measured on), then repeats the workload's op for ``--seconds`` seconds, one
op at a time, collecting garbage between ops and checking every op's
outputs.  Every timed region sits between two passes of a fixed calibration
loop and is reported in seconds at a reference host speed (see
``hostspeed.py``); raw wall times are printed beside the result.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced ops and prints the per-layer metrics.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--self-test`` runs every workload briefly in both modes, checks each
metric named in BENCHMARK.json is printed with its unit, and checks that a
corrupted output memory is counted as a failed op.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(HERE, ".tmp")
CHILD_FLAG = "FLOWBENCH_CHILD"
START_VAR = "FLOWBENCH_START"
CALIB_VAR = "FLOWBENCH_CALIB"
WORKLOAD_NAMES = ("cold", "warm-store")
SETUP_REPS = 5
#: The traced run fails when the named layers cover less of op wall time.
MIN_COVERAGE = 0.90
#: Environment variables that pin numeric libraries to one thread.
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

UNITS = {"setup_s": "s", "latency_s": "s", "peak_rss_mb": "MB",
         "hw_cycles": "cycles", "hw_lut": "count", "hw_ff": "count",
         "hw_dsp": "count", "hw_bram": "count"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    return args


def relaunch(argv) -> None:
    """Re-execute under the benchmark's fixed environment (never returns)."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update({variable: "1" for variable in SINGLE_THREAD})
    os.makedirs(WORK_ROOT, exist_ok=True)
    env.update(PYTHONHASHSEED="0", PYTHONPATH=os.path.join(ROOT, "src"),
               TMPDIR=WORK_ROOT, **{CHILD_FLAG: "1",
                                    CALIB_VAR: repr(hostspeed.calibrate()),
                                    START_VAR: repr(time.monotonic())})
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__),
                               *argv], env)


def load_program() -> float:
    """Import every module an op touches; wall seconds since the relaunch."""
    import repro
    if not os.path.abspath(repro.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"repro was imported from {repro.__file__}, not "
                         "from this checkout's src/")
    import repro.passes.pipeline  # noqa: F401
    import repro.sim.testbench  # noqa: F401
    import layers
    import workloads  # noqa: F401
    layers._entry_points()
    return time.monotonic() - float(os.environ[START_VAR])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Run:
    """One benchmark run of one workload: set-up, timed ops, metrics."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 workdir: str, setup_reps: int = SETUP_REPS,
                 corrupt: bool = False) -> None:
        import workloads
        self.seconds = seconds
        self.trace = trace
        self.setup_reps = setup_reps
        self.corrupt = corrupt
        self.workload = workloads.FirstTouch(seed, workdir,
                                             warm_store=(name == "warm-store"))
        # Times are scaled to the reference host speed unless named raw.
        self.setup_times = []
        self.raw_setup_times = []
        self.calibrations = []   # (before, after) per successful op
        self.walls = []          # successful untraced ops
        self.raw_walls = []
        self.traced_walls = []   # successful traced ops
        self.records = []        # (wall, LayerRecord, sizes, scale) per
                                 # successful traced op
        self.attempted = 0
        self.failures = []

    def set_up(self) -> None:
        for _ in range(self.setup_reps):
            gc.collect()
            before = hostspeed.calibrate()
            start = time.perf_counter()
            self.workload.setup()
            self.raw_setup_times.append(time.perf_counter() - start)
            after = hostspeed.calibrate()
            self.setup_times.append(self.raw_setup_times[-1]
                                    * hostspeed.scale(before, after))
        self.workload.corrupt = self.corrupt
        gc.collect()
        gc.freeze()

    def measure(self) -> None:
        from layers import LayerTrace
        from repro.obs.tracer import TRACER
        layer_trace = LayerTrace()
        deadline = time.perf_counter() + self.seconds
        while (self.attempted < (2 if self.trace else 1)
               or time.perf_counter() < deadline):
            traced = self.trace and self.attempted % 2 == 1
            self.attempted += 1
            prepared = self.workload.prepare()
            gc.collect()
            before = hostspeed.calibrate()
            record = None
            try:
                if traced:
                    layer_trace.install()
                    TRACER.clear()
                    TRACER.enable()
                start = time.perf_counter()
                try:
                    result = self.workload.op(prepared)
                    wall = time.perf_counter() - start
                finally:
                    if traced:
                        TRACER.disable()
                        layer_trace.uninstall()
                        layer_trace.fold_spans(TRACER.spans, TRACER.origin,
                                               "sim.run", "sim.run")
                        TRACER.clear()
                        record = layer_trace.take()
                after = hostspeed.calibrate()
                self.workload.verify(prepared, result)
            except Exception as error:  # a failed op is counted, not fatal
                self.failures.append(f"op {self.attempted}: "
                                     f"{type(error).__name__}: {error}")
                continue
            finally:
                self.workload.release(prepared)
            self.calibrations.append((before, after))
            scale = hostspeed.scale(before, after)
            if traced:
                self.traced_walls.append(wall * scale)
                self.records.append((wall, record, record.sizes(), scale))
            else:
                self.walls.append(wall * scale)
                self.raw_walls.append(wall)

    def close(self) -> None:
        self.workload.close()

    # -- metrics -----------------------------------------------------------
    def end_to_end(self, import_s: float):
        metrics = {
            "setup_s": import_s + statistics.median(self.setup_times),
            "latency_s": statistics.median(self.walls) if self.walls else 0.0,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics.update(self.workload.qor())
        return {key: {"value": value, "unit": UNITS[key]}
                for key, value in metrics.items()}

    def per_layer(self):
        from layers import LAYERS
        records = [record for _, record, _, _ in self.records]
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}_s"] = (statistics.median(
                record.seconds(layer) * scale
                for _, record, _, scale in self.records), "s")
        for key, unit in (("passes.ops_out", "count"),
                          ("verilog.emit_bytes", "bytes"),
                          ("sim.codegen_bytes", "bytes"),
                          ("sim.pycompile_calls", "count"),
                          ("store.bytes_written", "bytes")):
            metrics[key] = (statistics.median(
                sizes[key] for _, _, sizes, _ in self.records), unit)
        totals = [sum(record.counters[i] for record in records)
                  for i in range(4)]
        metrics["store.hit_ratio"] = (_ratio(totals[0], totals[1]), "ratio")
        metrics["sim.compile.hit_ratio"] = (_ratio(totals[2], totals[3]),
                                            "ratio")
        metrics["unaccounted_s"] = (statistics.median(
            (wall - record.covered()) * scale
            for wall, record, _, scale in self.records), "s")
        metrics["layers.coverage"] = (self.coverage(), "ratio")
        metrics["trace_overhead"] = (
            statistics.median(self.traced_walls)
            / statistics.median(self.walls) - 1.0, "ratio")
        metrics["host.calib_s"] = (statistics.median(
            seconds for pair in self.calibrations for seconds in pair), "s")
        return {key: {"value": value, "unit": unit}
                for key, (value, unit) in metrics.items()}

    def coverage(self) -> float:
        covered = sum(record.covered() for _, record, _, _ in self.records)
        return covered / sum(wall for wall, _, _, _ in self.records)


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def run_once(name, seed, seconds, trace, import_s, setup_reps=SETUP_REPS,
             corrupt=False):
    """Set up, measure and report one run; returns the result object."""
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    run = Run(name, seed, seconds, bool(trace), workdir, setup_reps, corrupt)
    try:
        run.set_up()
        run.measure()
    finally:
        run.close()
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(run.failures)
    correct = failed == 0
    print(f"workload={name} seed={seed} trace={trace} attempted="
          f"{run.attempted} failed={failed} error_rate="
          f"{failed / run.attempted:.4f}")
    calibrations = [seconds for pair in run.calibrations for seconds in pair]
    for label, samples in (("latency_s", run.walls),
                           ("latency_s raw wall", run.raw_walls),
                           ("latency_s traced", run.traced_walls),
                           ("host.calib_s", calibrations)):
        if samples:
            q1, q2, q3 = quartiles(samples)
            print(f"{label} median={q2:.6f} q1={q1:.6f} q3={q3:.6f} "
                  f"min={min(samples):.6f} max={max(samples):.6f} "
                  f"n={len(samples)}")
    print(f"setup_s import={import_s:.4f} reps="
          + ",".join(f"{value:.4f}" for value in run.setup_times)
          + " raw wall reps="
          + ",".join(f"{value:.4f}" for value in run.raw_setup_times))
    for design, signature in run.workload.expected.items():
        print(f"qor {design} cycles={signature.cycles} lut={signature.lut} "
              f"ff={signature.ff} dsp={signature.dsp} bram={signature.bram}")
    for failure in run.failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    if trace:
        if not run.records or not run.walls:
            metrics = {}
            correct = False
        else:
            metrics = run.per_layer()
            coverage = run.coverage()
            if coverage < MIN_COVERAGE:
                correct = False
                gap = metrics["unaccounted_s"]["value"]
                print(f"layer coverage {coverage:.3f} < {MIN_COVERAGE:.2f} on "
                      f"{name}: {gap:.4f} s per op is outside every named "
                      "layer", file=sys.stderr)
    else:
        metrics = run.end_to_end(import_s)
    return {"correct": correct, "attempted": run.attempted, "failed": failed,
            "metrics": metrics}


def self_test(import_s: float) -> int:
    """Every workload, both modes, plus a corrupted-output run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    for name in WORKLOAD_NAMES:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run_once(name, 1, 0.0, trace, import_s, setup_reps=1)
            line = json.dumps(result)
            print(line)
            printed = json.loads(line)["metrics"]
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: run not correct")
            expected = {metric["name"]: metric["unit"] for metric in declared}
            got = {key: value["unit"] for key, value in printed.items()}
            if got != expected:
                problems.append(f"{name} trace={trace}: metrics {got} != "
                                f"declared {expected}")
        print(f"self-test: {name} with corrupted outputs; its ops must fail")
        broken = run_once(name, 1, 0.0, 0, import_s, setup_reps=1,
                          corrupt=True)
        if broken["correct"] or broken["failed"] != broken["attempted"]:
            problems.append(f"{name}: corrupted outputs were not counted as "
                            f"failed ops ({broken})")
    for problem in problems:
        print(f"SELF-TEST {problem}", file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if os.environ.get(CHILD_FLAG) != "1":
        relaunch(argv)
    import_s = load_program() * hostspeed.scale(
        float(os.environ[CALIB_VAR]), hostspeed.calibrate())
    if args.self_test:
        return self_test(import_s)
    try:
        result = run_once(args.workload, args.seed, args.seconds, args.trace,
                          import_s)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
