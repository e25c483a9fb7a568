"""Parallel DSE under failure: supervised workers, typed errors, cleanup.

A worker that crashes, stalls or raises mid-sweep must never change the
chosen schedules (the candidate is re-evaluated in-process), must surface
as a typed :class:`repro.resilience.WorkerError` when truly unrecoverable,
and must never leave executors or futures behind on interrupt.
"""

import os
import subprocess
import sys

import pytest

import repro.hls.dse as dse
from repro.hls import HLSOptions, clear_schedule_memo, compile_program
from repro.kernels import build_kernel
from repro.resilience import (
    FaultPlan,
    WorkerError,
    install_plan,
    resilience_counters,
    set_plan,
)
from repro.verilog.emitter import emit_design


@pytest.fixture(autouse=True)
def no_ambient_plan():
    previous = set_plan(None)
    try:
        yield
    finally:
        set_plan(previous)
        dse.shutdown_executors()


def _compile(options):
    clear_schedule_memo()
    artifacts = build_kernel("transpose", size=8)
    result = compile_program(artifacts.hls_program, artifacts.hls_function,
                             options=options)
    return emit_design(result.design), result


class TestWorkerRecovery:
    def test_failed_candidate_is_retried_in_process(self):
        baseline, _ = _compile(HLSOptions(jobs=1))
        before = resilience_counters().get("dse.worker_failures", 0)
        with install_plan(FaultPlan.parse("dse.candidate:error@3*2")):
            recovered, _ = _compile(HLSOptions(jobs=2))
        assert recovered == baseline
        assert resilience_counters()["dse.worker_failures"] > before

    def test_stalled_candidate_is_abandoned_and_recovered(self):
        baseline, _ = _compile(HLSOptions(jobs=1))
        with install_plan(FaultPlan.parse("dse.candidate:timeout(0.6)@2")):
            recovered, _ = _compile(HLSOptions(jobs=2,
                                               candidate_timeout=0.05,
                                               candidate_retries=2))
        assert recovered == baseline

    def test_unrecoverable_candidate_raises_typed_worker_error(self):
        from repro.ir.errors import HLSError
        with install_plan(FaultPlan.parse("dse.candidate:error*500")):
            with pytest.raises(WorkerError) as excinfo:
                _compile(HLSOptions(jobs=2, candidate_retries=1))
        assert isinstance(excinfo.value, HLSError)
        assert "in-process attempt" in str(excinfo.value)

    def test_candidate_options_validate(self):
        with pytest.raises(ValueError):
            HLSOptions(candidate_timeout=0)
        with pytest.raises(ValueError):
            HLSOptions(candidate_retries=-1)


class TestInterruptCleanup:
    def test_keyboard_interrupt_discards_the_executor(self, monkeypatch):
        def explode(*args, **kwargs):
            raise KeyboardInterrupt()
        monkeypatch.setattr(dse, "_recover_inprocess", explode)
        with install_plan(FaultPlan.parse("dse.candidate:error@2")):
            with pytest.raises(KeyboardInterrupt):
                _compile(HLSOptions(jobs=2))
        # The pool was torn down, not left running with queued work.
        assert dse._EXECUTORS == {}

    def test_rerun_after_interrupt_is_identical(self, monkeypatch):
        baseline, _ = _compile(HLSOptions(jobs=2))
        def explode(*args, **kwargs):
            raise KeyboardInterrupt()
        monkeypatch.setattr(dse, "_recover_inprocess", explode)
        with install_plan(FaultPlan.parse("dse.candidate:error@2")):
            with pytest.raises(KeyboardInterrupt):
                _compile(HLSOptions(jobs=2))
        monkeypatch.undo()
        rerun, report = _compile(HLSOptions(jobs=2))
        assert rerun == baseline        # memo survived the interrupt intact


class TestProcessPoolCrash:
    # The child suppresses the environment plan in its own (parent) process
    # before compiling: only the forked pool workers re-read
    # REPRO_FAULT_PLAN (dse._process_worker_init), so the serial recovery
    # in the parent never injects.
    _CHILD = r"""
import hashlib
from repro.hls import HLSOptions, compile_program
from repro.kernels import build_kernel
from repro.resilience import resilience_counters, set_plan
from repro.verilog.emitter import emit_design
set_plan(None)
artifacts = build_kernel("transpose", size=8)
result = compile_program(artifacts.hls_program, artifacts.hls_function,
                         options=HLSOptions(jobs=2, executor="process",
                                            candidate_retries=2))
print(hashlib.sha256(emit_design(result.design).encode()).hexdigest())
print(resilience_counters().get("dse.degraded", 0))
"""

    def _run_child(self, fault_plan):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(os.path.dirname(__file__), "..", "..",
                                       "src"),
                          env.get("PYTHONPATH")]))
        if fault_plan:
            env["REPRO_FAULT_PLAN"] = fault_plan
        else:
            env.pop("REPRO_FAULT_PLAN", None)
        return subprocess.run([sys.executable, "-c", self._CHILD],
                              env=env, capture_output=True, text=True,
                              timeout=300)

    def test_sigkilled_worker_degrades_to_serial_identical(self):
        clean = self._run_child(None)
        assert clean.returncode == 0, clean.stderr
        clean_hash, clean_degraded = clean.stdout.split()
        assert clean_degraded == "0"
        # Each forked worker re-reads the env plan and SIGKILLs itself on
        # its first candidate, breaking the pool; the sweep finishes
        # serially in the parent.
        crashed = self._run_child("dse.candidate:crash")
        assert crashed.returncode == 0, crashed.stderr
        crashed_hash, crashed_degraded = crashed.stdout.split()
        assert crashed_hash == clean_hash
        assert crashed_degraded == "1"
