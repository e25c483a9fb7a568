"""Fault plans: grammar, deterministic firing, counters, scoping.

The resilience layer is only trustworthy if the drills themselves are
deterministic — the same (plan spec, seed) must fire the same faults at the
same hits and flip the same bytes, or a chaos-run failure cannot be
replayed.
"""

import pytest

from repro.resilience import (
    FAULT_KINDS,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    InjectedError,
    InjectedFault,
    InjectedIOError,
    active_plan,
    bump,
    fault_point,
    install_plan,
    resilience_counters,
    reset_resilience_counters,
    set_plan,
)
from repro.resilience.faults import _reset_env_plan


@pytest.fixture(autouse=True)
def no_ambient_plan():
    """Tests control the plan explicitly; none may leak in or out."""
    previous = set_plan(None)
    try:
        yield
    finally:
        set_plan(previous)


class TestPlanParsing:
    def test_minimal_rule_defaults(self):
        plan = FaultPlan.parse("store.write:io_error")
        assert plan.rules == (FaultRule("store.write", "io_error"),)
        assert plan.rules[0].at == 1 and plan.rules[0].count == 1

    def test_at_and_count(self):
        rule = FaultPlan.parse("serve.execute:error@3*2").rules[0]
        assert (rule.at, rule.count) == (3, 2)
        assert [rule.fires_on(hit) for hit in (1, 2, 3, 4, 5)] == \
            [False, False, True, True, False]

    def test_timeout_seconds(self):
        rule = FaultPlan.parse("serve.request:timeout(0.25)").rules[0]
        assert rule.kind == "timeout" and rule.seconds == 0.25

    def test_multiple_rules_with_both_separators(self):
        plan = FaultPlan.parse(
            "store.write:torn@2; store.read:corrupt, engine.compile:error")
        assert [rule.point for rule in plan.rules] == \
            ["store.write", "store.read", "engine.compile"]

    def test_spec_round_trips(self):
        text = "store.write:torn@2*3;serve.request:timeout(0.4)"
        plan = FaultPlan.parse(text)
        assert FaultPlan.parse(plan.spec()).rules == plan.rules

    @pytest.mark.parametrize("bad", [
        "store.write",                    # no kind
        "store.write:frobnicate",         # unknown kind
        "store.write:io_error(2)",        # seconds on a non-timeout
        "store.write:io_error@0",         # hits are 1-based
        "store.write:io_error*0",         # empty window
        ":io_error",                      # no point
    ])
    def test_bad_specs_raise_typed_error(self, bad):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(bad)

    def test_every_kind_parses(self):
        for kind in FAULT_KINDS:
            if kind == "crash":
                continue                  # parses too; firing would SIGKILL us
            assert FaultPlan.parse(f"p:{kind}").rules[0].kind == kind


class TestFiring:
    def test_io_error_is_oserror_and_injected(self):
        with install_plan(FaultPlan.parse("p:io_error")):
            with pytest.raises(InjectedIOError) as excinfo:
                fault_point("p")
            assert isinstance(excinfo.value, OSError)
            assert isinstance(excinfo.value, InjectedFault)
            fault_point("p")              # window passed: hit 2 is clean

    def test_error_is_runtimeerror(self):
        with install_plan(FaultPlan.parse("p:error")):
            with pytest.raises(InjectedError) as excinfo:
                fault_point("p")
            assert isinstance(excinfo.value, RuntimeError)

    def test_window_fires_exactly_on_its_hits(self):
        with install_plan(FaultPlan.parse("p:error@2*2")) as plan:
            fault_point("p")              # hit 1: clean
            for _ in range(2):            # hits 2 and 3: injected
                with pytest.raises(InjectedError):
                    fault_point("p")
            fault_point("p")              # hit 4: clean again
            assert plan.injected == 2
            assert plan.hits("p") == 4

    def test_points_count_independently(self):
        with install_plan(FaultPlan.parse("a:error@2")) as plan:
            fault_point("b")
            fault_point("a")              # a's hit 1: clean
            with pytest.raises(InjectedError):
                fault_point("a")
            assert plan.hits("a") == 2 and plan.hits("b") == 1

    def test_corrupt_is_deterministic_and_changes_payload(self):
        payload = bytes(range(64))
        with install_plan(FaultPlan.parse("p:corrupt", seed=5)):
            first = fault_point("p", payload=payload)
        with install_plan(FaultPlan.parse("p:corrupt", seed=5)):
            replay = fault_point("p", payload=payload)
        assert first != payload
        assert first == replay            # same (seed, point, hit) → same flip
        assert len(first) == len(payload)

    def test_corrupt_seed_changes_the_flip(self):
        payload = bytes(1000)
        flips = set()
        for seed in range(4):
            with install_plan(FaultPlan.parse("p:corrupt", seed=seed)):
                flips.add(fault_point("p", payload=payload))
        assert len(flips) > 1

    def test_timeout_stalls_then_passes_payload_through(self):
        with install_plan(FaultPlan.parse("p:timeout(0.01)")):
            assert fault_point("p", payload=b"x") == b"x"

    def test_reset_replays_from_the_start(self):
        with install_plan(FaultPlan.parse("p:error")) as plan:
            with pytest.raises(InjectedError):
                fault_point("p")
            fault_point("p")
            plan.reset()
            with pytest.raises(InjectedError):
                fault_point("p")

    def test_no_plan_is_a_passthrough(self):
        assert fault_point("anything", payload=b"data") == b"data"
        assert fault_point("anything") is None


class TestScoping:
    def test_install_plan_restores_previous(self):
        outer = FaultPlan.parse("p:error")
        inner = FaultPlan.parse("q:error")
        set_plan(outer)
        with install_plan(inner):
            assert active_plan() is inner
        assert active_plan() is outer
        set_plan(None)

    def test_environment_plan_is_read_lazily(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "env.point:error")
        _reset_env_plan()
        try:
            plan = active_plan()
            assert plan is not None
            assert plan.rules[0].point == "env.point"
        finally:
            monkeypatch.delenv("REPRO_FAULT_PLAN")
            _reset_env_plan()

    def test_set_plan_none_disables_environment_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "env.point:error")
        _reset_env_plan()
        try:
            set_plan(None)
            assert active_plan() is None
            fault_point("env.point")      # must not raise
        finally:
            monkeypatch.delenv("REPRO_FAULT_PLAN")
            _reset_env_plan()


class TestCounters:
    def test_bump_and_snapshot(self):
        before = resilience_counters().get("test.counter", 0)
        bump("test.counter")
        bump("test.counter", 2)
        assert resilience_counters()["test.counter"] == before + 3

    def test_injection_increments_the_global_counter(self):
        before = resilience_counters().get("faults.injected", 0)
        with install_plan(FaultPlan.parse("p:error")):
            with pytest.raises(InjectedError):
                fault_point("p")
        assert resilience_counters()["faults.injected"] == before + 1

    def test_reset_zeroes(self):
        bump("test.reset")
        reset_resilience_counters()
        assert resilience_counters() == {}
