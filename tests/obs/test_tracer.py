"""Tracer core: spans, counters, events, the off-by-default rule."""

import threading

import pytest

from repro.obs.tracer import TRACER, Tracer, tracing


@pytest.fixture
def tracer():
    return Tracer()


class TestDisabledTracer:
    def test_disabled_records_nothing(self, tracer):
        with tracer.span("work", cat="test"):
            tracer.count("n")
            tracer.gauge("g", 1.0)
            tracer.event("e")
        assert tracer.spans == []
        assert tracer.counters == {}
        assert tracer.gauges == {}
        assert list(tracer.events) == []

    def test_disabled_span_is_shared_null_object(self, tracer):
        assert tracer.span("a") is tracer.span("b")

    def test_global_tracer_starts_disabled(self):
        assert TRACER.enabled is False


class TestSpans:
    def test_span_records_name_cat_args(self, tracer):
        tracer.enable()
        with tracer.span("stage", cat="flow", fingerprint="abc"):
            pass
        (span,) = tracer.spans
        assert span["name"] == "stage"
        assert span["cat"] == "flow"
        assert span["args"] == {"fingerprint": "abc"}
        assert span["dur"] >= 0

    def test_spans_nest_via_path(self, tracer):
        tracer.enable()
        with tracer.span("outer"):
            with tracer.span("inner"):
                with tracer.span("leaf"):
                    pass
        paths = sorted(span["path"] for span in tracer.spans)
        assert paths == ["outer", "outer/inner", "outer/inner/leaf"]

    def test_sibling_spans_share_parent_path(self, tracer):
        tracer.enable()
        with tracer.span("parent"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        paths = {span["path"] for span in tracer.spans}
        assert paths == {"parent", "parent/a", "parent/b"}

    def test_set_attaches_attributes_while_open(self, tracer):
        tracer.enable()
        with tracer.span("s") as span:
            span.set(cycles=42)
        assert tracer.spans[0]["args"]["cycles"] == 42

    def test_spans_nest_per_thread(self, tracer):
        tracer.enable()
        seen = []

        def worker(name):
            with tracer.span(name):
                seen.append(name)

        with tracer.span("main"):
            thread = threading.Thread(target=worker, args=("t1",))
            thread.start()
            thread.join()
        by_name = {s["name"]: s for s in tracer.spans}
        # The worker's span is a root on its own thread, not nested in main.
        assert by_name["t1"]["path"] == "t1"
        assert by_name["t1"]["tid"] != by_name["main"]["tid"]


class TestCountersAndEvents:
    def test_count_accumulates(self, tracer):
        tracer.enable()
        tracer.count("n")
        tracer.count("n", 4)
        assert tracer.counters["n"] == 5

    def test_gauge_keeps_latest(self, tracer):
        tracer.enable()
        tracer.gauge("g", 1.0)
        tracer.gauge("g", 7.5)
        assert tracer.gauges["g"] == 7.5

    def test_event_ring_is_bounded(self, tracer):
        tracer.enable()
        capacity = tracer.events.maxlen
        for index in range(capacity + 10):
            tracer.event("e", index=index)
        assert len(tracer.events) == capacity
        assert tracer.events[-1]["args"]["index"] == capacity + 9

    def test_clear_resets_everything_but_enabled(self, tracer):
        tracer.enable()
        with tracer.span("s"):
            tracer.count("n")
        tracer.clear()
        assert tracer.spans == [] and tracer.counters == {}
        assert tracer.enabled


class TestActivation:
    def test_activated_enables_for_block(self, tracer):
        with tracer.activated(True):
            assert tracer.enabled
        assert not tracer.enabled

    def test_activated_false_is_noop(self, tracer):
        with tracer.activated(False):
            assert not tracer.enabled

    def test_nested_activation_never_disables_outer(self, tracer):
        with tracer.activated(True):
            with tracer.activated(True):
                pass
            assert tracer.enabled, "inner exit must not disable the outer"

    def test_tracing_helper_targets_global(self):
        assert not TRACER.enabled
        with tracing():
            assert TRACER.enabled
        assert not TRACER.enabled
