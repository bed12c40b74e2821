"""Tests for the tracer."""

from repro.sim.engine import Engine
from repro.sim.trace import TraceEvent, Tracer


def make_tracer(**kwargs):
    return Tracer(Engine(), **kwargs)


class TestTracer:
    def test_disabled_by_default(self):
        tracer = make_tracer()
        tracer.emit("issue", "x")
        assert tracer.events == []

    def test_enabled_records_with_time(self):
        engine = Engine()
        tracer = Tracer(engine, enabled=True)
        engine.at(50, tracer.emit, "issue", "tick")
        engine.run()
        assert len(tracer.events) == 1
        assert tracer.events[0].time == 50
        assert tracer.events[0].category == "issue"

    def test_category_filter(self):
        tracer = make_tracer(enabled=True, categories={"exception"})
        tracer.emit("issue", "ignored")
        tracer.emit("exception", "kept")
        assert [e.category for e in tracer.events] == ["exception"]

    def test_payload_captured(self):
        tracer = make_tracer(enabled=True)
        tracer.emit("issue", "x", cost=5, ptid=3)
        assert tracer.events[0].payload == {"cost": 5, "ptid": 3}

    def test_limit_drops_and_counts(self):
        tracer = make_tracer(enabled=True, limit=2)
        for i in range(5):
            tracer.emit("c", f"e{i}")
        assert len(tracer.events) == 2
        assert tracer.dropped == 3

    def test_filter_by_category(self):
        tracer = make_tracer(enabled=True)
        tracer.emit("a", "1")
        tracer.emit("b", "2")
        tracer.emit("a", "3")
        assert len(tracer.filter("a")) == 2

    def test_clear_resets_everything(self):
        tracer = make_tracer(enabled=True, limit=1)
        tracer.emit("a", "1")
        tracer.emit("a", "2")
        tracer.clear()
        assert tracer.events == []
        assert tracer.dropped == 0

    def test_dump_truncates(self):
        tracer = make_tracer(enabled=True)
        for i in range(10):
            tracer.emit("c", f"e{i}")
        dump = tracer.dump(max_lines=3)
        assert "7 more events" in dump

    def test_event_str_format(self):
        event = TraceEvent(42, "issue", "hello", {"k": 1})
        text = str(event)
        assert "42" in text and "issue" in text and "hello" in text

    def test_drop_accounting_invariant_with_categories(self):
        # len(events) + dropped == true emit count for SELECTED
        # categories; deselected categories never count as dropped
        tracer = make_tracer(enabled=True, categories={"keep"}, limit=2)
        for i in range(4):
            tracer.emit("keep", f"k{i}")
            tracer.emit("skip", f"s{i}")
        assert len(tracer.events) == 2
        assert tracer.dropped == 2
        assert len(tracer.events) + tracer.dropped == 4


class TestMerge:
    def test_events_append_in_order(self):
        a = make_tracer(enabled=True)
        b = make_tracer(enabled=True)
        a.emit("x", "a1")
        b.emit("x", "b1")
        b.emit("x", "b2")
        a.merge(b)
        assert [e.message for e in a.events] == ["a1", "b1", "b2"]

    def test_overflow_counts_into_dropped(self):
        a = make_tracer(enabled=True, limit=3)
        b = make_tracer(enabled=True)
        a.emit("x", "a1")
        a.emit("x", "a2")
        for i in range(4):
            b.emit("x", f"b{i}")
        a.merge(b)
        assert len(a.events) == 3
        assert a.events[-1].message == "b0"
        assert a.dropped == 3
        # invariant survives the merge: 2 + 4 emits total
        assert len(a.events) + a.dropped == 6

    def test_other_tracers_dropped_carries_over(self):
        a = make_tracer(enabled=True)
        b = make_tracer(enabled=True, limit=1)
        b.emit("x", "kept")
        b.emit("x", "lost")
        a.merge(b)
        assert a.dropped == 1
        assert len(a.events) == 1

    def test_merge_into_full_tracer_drops_everything(self):
        a = make_tracer(enabled=True, limit=1)
        b = make_tracer(enabled=True)
        a.emit("x", "only")
        b.emit("x", "b1")
        b.emit("x", "b2")
        a.merge(b)
        assert [e.message for e in a.events] == ["only"]
        assert a.dropped == 2


class TestMachineTracing:
    def test_machine_trace_captures_issues_and_exceptions(self):
        from repro.machine import build_machine
        machine = build_machine(trace=True)
        edp = machine.alloc("edp", 64)
        machine.load_asm(0, """
            movi r1, 1
            movi r2, 0
            div r3, r1, r2
            halt
        """, supervisor=True, edp=edp.base)
        machine.boot(0)
        machine.run(until=10_000)
        assert machine.tracer.filter("issue")
        assert machine.tracer.filter("exception")
