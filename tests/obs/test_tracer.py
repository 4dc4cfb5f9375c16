"""Unit tests for the tracer substrate: events, spans, null tracer."""

import pytest

from repro.des import Environment
from repro.obs import NULL_TRACER, Span, TraceEvent, Tracer
from repro.obs.tracer import assemble_spans


@pytest.fixture
def env():
    return Environment()


class TestTracer:
    def test_point_event_stamped_with_sim_time(self, env):
        tr = env.enable_tracing()
        env.timeout(2.5).callbacks.append(lambda e: tr.event("tick", n=1))
        env.run()
        (ev,) = tr.events
        assert ev.time == 2.5
        assert ev.name == "tick"
        assert ev.kind == "event"
        assert ev.fields == {"n": 1}

    def test_field_named_name_is_allowed(self, env):
        # 'name' is positional-only so it can also be a field key.
        tr = env.enable_tracing()
        tr.event("mig.start", name="zone_serv0")
        assert tr.events[0].fields["name"] == "zone_serv0"

    def test_begin_end_pairs_into_span(self, env):
        tr = env.enable_tracing()
        sid = tr.begin("phase", round=0)
        env.timeout(1.0)
        env.run()
        tr.end(sid, nbytes=100)
        (span,) = tr.spans()
        assert span.name == "phase"
        assert span.duration == pytest.approx(1.0)
        # Fields from both edges are merged.
        assert span.fields == {"round": 0, "nbytes": 100}

    def test_unclosed_span_has_no_end(self, env):
        tr = env.enable_tracing()
        tr.begin("phase")
        (span,) = tr.spans()
        assert span.end is None
        assert span.duration is None

    def test_span_context_manager(self, env):
        tr = env.enable_tracing()
        with tr.span("work", x=1):
            pass
        (span,) = tr.spans("work")
        assert span.end is not None

    def test_span_context_manager_records_error(self, env):
        tr = env.enable_tracing()
        with pytest.raises(RuntimeError):
            with tr.span("work"):
                raise RuntimeError("boom")
        (span,) = tr.spans()
        assert "RuntimeError: boom" in span.fields["error"]

    def test_named_and_clear(self, env):
        tr = env.enable_tracing()
        tr.event("a")
        tr.event("b")
        tr.event("a")
        assert len(tr.named("a")) == 2
        assert len(tr) == 3
        tr.clear()
        assert len(tr) == 0

    def test_custom_tracer_instance(self, env):
        mine = Tracer(env)
        assert env.enable_tracing(mine) is mine
        assert env.tracer is mine


class TestNullTracer:
    def test_default_and_noop(self, env):
        assert env.tracer is NULL_TRACER
        assert not env.tracer.enabled
        env.tracer.event("x", a=1)
        sid = env.tracer.begin("y")
        env.tracer.end(sid)
        with env.tracer.span("z"):
            pass
        assert len(env.tracer) == 0
        assert env.tracer.events == []
        assert env.tracer.spans() == []
        assert env.tracer.named("x") == []


class TestEventSerialization:
    def test_round_trip(self):
        ev = TraceEvent(1.5, "mig.start", "event", None, {"pid": 7})
        assert TraceEvent.from_dict(ev.to_dict()) == ev

    def test_span_edges_round_trip(self):
        b = TraceEvent(1.0, "phase", "begin", 3, {})
        e = TraceEvent(2.0, "phase", "end", 3, {"n": 1})
        events = [TraceEvent.from_dict(x.to_dict()) for x in (b, e)]
        (span,) = assemble_spans(events)
        assert span == Span("phase", 3, 1.0, 2.0, {"n": 1})


class TestRingBuffer:
    def test_unbounded_by_default(self, env):
        tr = env.enable_tracing()
        for i in range(1000):
            tr.event("tick", n=i)
        assert len(tr) == 1000
        assert tr.dropped_events == 0

    def test_oldest_dropped_and_counted(self, env):
        tr = env.enable_tracing(max_events=10)
        for i in range(25):
            tr.event("tick", n=i)
        assert len(tr) == 10
        assert tr.dropped_events == 15
        assert [e.fields["n"] for e in tr.events] == list(range(15, 25))

    def test_dropped_counter_metric(self, env):
        env.enable_metrics()
        tr = env.enable_tracing(max_events=2)
        for i in range(5):
            tr.event("tick", n=i)
        assert env.metrics.snapshot()["obs.dropped_events"] == 3

    def test_end_named_after_begin_evicted(self, env):
        tr = env.enable_tracing(max_events=2)
        sid = tr.begin("mig.freeze")
        tr.event("x")
        tr.event("y")
        tr.end(sid)
        (end,) = [e for e in tr.events if e.kind == "end"]
        assert end.to_dict() == {
            "t": 0.0,
            "name": "mig.freeze",
            "kind": "end",
            "span": sid,
        }


class TestCausalKwargs:
    def test_causal_tracer_records_annotations(self, env):
        tr = env.enable_tracing()
        ref = tr.event("a", ref=True)
        assert ref > 0
        sid = tr.begin("b", caused_by=ref)
        tr.end(sid)
        tr.event("c", parent=sid, caused_by=ref)
        a, b, _bend, c = tr.events
        assert a.ref == ref
        assert b.caused_by == ref
        assert c.parent == sid and c.caused_by == ref
        (span,) = tr.spans()
        assert span.caused_by == ref

    def test_causal_ids_share_one_namespace(self, env):
        tr = env.enable_tracing()
        ref = tr.event("a", ref=True)
        sid = tr.begin("b")
        assert ref != sid

    def test_causal_annotations_round_trip_jsonl(self, env):
        from repro.obs import trace_to_jsonl

        tr = env.enable_tracing()
        ref = tr.event("a", ref=True)
        sid = tr.begin("b", caused_by=ref)
        tr.end(sid)
        text = trace_to_jsonl(tr)
        assert '"ref"' in text and '"caused_by"' in text
        import json

        for line, orig in zip(text.splitlines(), tr.events):
            assert TraceEvent.from_dict(json.loads(line)) == orig

    def test_null_tracer_accepts_causal_kwargs(self):
        assert NULL_TRACER.event("x", ref=True, parent=1, caused_by=2) == 0
        assert NULL_TRACER.dropped_events == 0
