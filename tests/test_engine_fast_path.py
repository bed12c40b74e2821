"""The engine fast path: O(1) pending count, lazy compaction,
run_until_idle, and the run_until horizon the core fast-forward reads."""

from repro.sim.engine import _COMPACT_MIN_QUEUE, Engine


def test_pending_events_counter_tracks_cancel_and_dispatch():
    engine = Engine()
    calls = [engine.at(t, lambda: None) for t in (5, 10, 15)]
    assert engine.pending_events == 3
    calls[1].cancel()
    calls[1].cancel()  # idempotent: must not double-decrement
    assert engine.pending_events == 2
    engine.step()
    assert engine.pending_events == 1
    engine.run()
    assert engine.pending_events == 0


def test_lazy_compaction_prunes_cancelled_entries():
    engine = Engine()
    calls = [engine.at(i + 1, lambda: None)
             for i in range(2 * _COMPACT_MIN_QUEUE)]
    for call in calls[: _COMPACT_MIN_QUEUE + 1]:
        call.cancel()
    # cancelled entries outnumber live ones -> heap was rebuilt
    assert len(engine._queue) == _COMPACT_MIN_QUEUE - 1
    assert engine.pending_events == _COMPACT_MIN_QUEUE - 1
    engine.run()
    assert engine.events_processed == _COMPACT_MIN_QUEUE - 1


def test_run_until_idle_drains_and_returns_last_time():
    engine = Engine()
    seen = []
    engine.at(3, seen.append, "a")
    engine.at(9, seen.append, "b")
    assert engine.run_until_idle() == 9
    assert seen == ["a", "b"]
    assert engine.pending_events == 0


def test_next_event_time_skips_cancelled_heads():
    engine = Engine()
    first = engine.at(4, lambda: None)
    engine.at(7, lambda: None)
    assert engine.next_event_time() == 4
    first.cancel()
    assert engine.next_event_time() == 7


def test_run_until_exposed_only_inside_bounded_run():
    engine = Engine()
    seen = []
    engine.at(5, lambda: seen.append(engine.run_until))
    assert engine.run_until is None
    engine.run(until=50)
    assert seen == [50]
    assert engine.run_until is None
    engine.at(60, lambda: seen.append(engine.run_until))
    engine.run()  # unbounded: no horizon
    assert seen == [50, None]


def test_cancel_after_dispatch_only_marks_the_handle():
    engine = Engine()
    fired = engine.at(5, lambda: None)
    engine.at(9, lambda: None)
    engine.step()
    assert not fired.cancelled
    assert engine.pending_events == 1
    fired.cancel()  # too late: must not touch the live count
    assert fired.cancelled
    assert engine.pending_events == 1
    engine.run()
    assert engine.events_processed == 2
    assert engine.pending_events == 0


def test_cancelled_step_call_never_fires():
    engine = Engine()
    seen = []
    step = engine.at_step(4, seen.append, "step")
    later = engine.after_step(8, seen.append, "later")
    engine.at(4, seen.append, "main")
    assert step.step and later.step
    step.cancel()
    later.cancel()
    assert step.cancelled and later.cancelled
    assert engine.pending_events == 1
    engine.run()  # the dispatch core, not a peek, meets the tombstones
    assert seen == ["main"]
    assert engine.events_processed == 1
