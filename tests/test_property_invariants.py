"""Property-based tests of core invariants under random schedules."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.storage import ThreadStateStore
from repro.machine import build_machine
from repro.mem.memory import Memory


class TestNoLostWakeups:
    """Paper semantics: a write between monitor and mwait must not be
    lost -- mwait falls through. Randomize the write's timing against
    the waiter's progress and require the waiter to always finish."""

    @given(write_delay=st.integers(min_value=0, max_value=400),
           pre_work=st.integers(min_value=1, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_waiter_always_completes(self, write_delay, pre_work):
        # the canonical idiom: arm, CHECK, then mwait -- covers both a
        # write before arming (check catches it) and a write between
        # check and mwait (the pending flag makes mwait fall through)
        machine = build_machine()
        flag = machine.alloc("flag", 64)
        machine.load_asm(0, """
            work PRE
            movi r1, FLAG
            monitor r1
            ld r2, r1, 0
            bne r2, r0, done
            mwait
            ld r2, r1, 0
        done:
            halt
        """, symbols={"FLAG": flag.base, "PRE": pre_work},
            supervisor=True)
        machine.boot(0)
        machine.engine.at(write_delay, machine.memory.store,
                          flag.base, 7, "dev")
        machine.run(until=write_delay + pre_work + 10_000)
        machine.check()
        thread = machine.thread(0)
        assert thread.finished
        assert thread.arch.read("r2") == 7

    @given(delays=st.lists(st.integers(min_value=0, max_value=1000),
                           min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_counting_handler_sees_final_count(self, delays):
        """Coalescing is allowed (multiple writes, one wakeup) but the
        final counter value must always be observed."""
        machine = build_machine()
        counter = machine.alloc("ctr", 64)
        seen = machine.alloc("seen", 64)
        machine.load_asm(0, """
        loop:
            movi r1, CTR
            monitor r1
            ld r2, r1, 0
            bne r2, r5, progress
            mwait
            ld r2, r1, 0
        progress:
            mov r5, r2
            movi r3, SEEN
            st r3, 0, r2
            movi r4, TARGET
            blt r2, r4, loop
            halt
        """, symbols={"CTR": counter.base, "SEEN": seen.base,
                      "TARGET": len(delays)}, supervisor=True)
        machine.boot(0)
        for delay in sorted(delays):
            machine.engine.at(delay, machine.memory.fetch_add,
                              counter.base, 1, "dev")
        machine.run(until=max(delays) + 20_000)
        machine.check()
        assert machine.memory.load(seen.base) == len(delays)


class TestEngineDeterminism:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_identical_runs_identical_traces(self, seed):
        def run_once():
            machine = build_machine(seed=seed)
            word = machine.alloc("w", 64)
            machine.load_asm(0, """
            loop:
                faa r1, r2, 1
                addi r3, r3, 1
                movi r4, 20
                blt r3, r4, loop
                halt
            """, supervisor=True)
            machine.thread(0).arch.write("r2", word.base)
            machine.boot(0)
            machine.run()
            return (machine.engine.now,
                    machine.engine.events_processed,
                    machine.memory.load(word.base))

        assert run_once() == run_once()


#: Scheduling actions the dispatch-order property draws from: a
#: scheduling call with its delay from now, a cancel of the n-th call
#: made so far (modulo the count; a no-op once it has fired), or a purge
#: that cancels two of every three calls (crossing the compaction
#: threshold, possibly from inside a callback mid-run).
_ENGINE_ACTION = st.one_of(
    st.tuples(st.just("schedule"),
              st.sampled_from(("at", "after", "at_step", "after_step")),
              st.integers(min_value=0, max_value=6)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=500)),
    st.tuples(st.just("purge")))

_ENGINE_DRIVER = st.one_of(
    st.tuples(st.just("step")),
    st.tuples(st.just("until"), st.integers(min_value=0, max_value=8)),
    st.tuples(st.just("max_events"), st.integers(min_value=0, max_value=6)),
    st.tuples(st.just("idle")),
    st.tuples(st.just("burst"), st.integers(min_value=1, max_value=80)),
    _ENGINE_ACTION)


class TestDispatchMatchesSortedReference:
    """The engine's single dispatch core against a sorted-list model.

    Random interleavings of ``at``/``after``/``at_step``/``after_step``/
    ``cancel``, driven by ``step()``, ``run(until=...)``,
    ``run(max_events=...)`` and ``run_until_idle()``, with callbacks that
    themselves schedule and cancel (including at the current time). Every
    dispatch must be the smallest live ``(time, seq)`` of the model, and
    at every stop the engine's queries must match it.
    """

    MAX_CALLS = 300

    @given(scripts=st.lists(st.lists(_ENGINE_ACTION, max_size=3),
                            max_size=40),
           drive=st.lists(_ENGINE_DRIVER, min_size=1, max_size=25))
    @settings(max_examples=200, deadline=None)
    def test_dispatch_order_and_queries(self, scripts, drive):
        from repro.sim.engine import Engine

        engine = Engine()
        handles = []
        # label -> (time, seq, step lane); calls are labelled in
        # scheduling order, which is also the engine's seq order
        model = {}
        fired = []
        horizon = [None]

        def apply(action):
            if action[0] == "schedule":
                if len(handles) >= self.MAX_CALLS:
                    return
                _, kind, delay = action
                label = len(handles)
                time = engine.now + delay
                if kind.startswith("at"):
                    call = getattr(engine, kind)(time, fire, label)
                else:
                    call = getattr(engine, kind)(delay, fire, label)
                handles.append(call)
                model[label] = (time, label, kind.endswith("step"))
            elif action[0] == "cancel":
                if handles:
                    label = action[1] % len(handles)
                    handles[label].cancel()
                    model.pop(label, None)
            else:
                for label, call in enumerate(handles):
                    if label % 3:
                        call.cancel()
                        model.pop(label, None)

        def fire(label):
            assert (engine.now, label) == min(model.values())[:2]
            assert horizon[0] is None or engine.now <= horizon[0]
            del model[label]
            fired.append(label)
            if label < len(scripts):
                for action in scripts[label]:
                    apply(action)

        def check_queries():
            assert engine.pending_events == len(model)
            times = [t for t, _, _ in model.values()]
            assert engine.next_event_time() == (min(times) if times else None)
            foreign = [t for t, _, step in model.values() if not step]
            assert engine.next_foreign_event_time() == \
                (min(foreign) if foreign else None)

        for command in drive:
            op = command[0]
            before = len(fired)
            if op == "step":
                had = bool(model)
                assert engine.step() is had
                assert len(fired) - before == int(had)
            elif op == "until":
                until = engine.now + command[1]
                horizon[0] = until
                assert engine.run(until=until) == until
                horizon[0] = None
                assert engine.now == until
                assert all(t > until for t, _, _ in model.values())
            elif op == "max_events":
                engine.run(max_events=command[1])
                done = len(fired) - before
                assert done == command[1] or (done < command[1] and not model)
            elif op == "idle":
                engine.run_until_idle()
                assert not model
            elif op == "burst":
                for i in range(command[1]):
                    apply(("schedule", "after", i % 7))
            else:
                apply(command)
            check_queries()
        engine.run_until_idle()
        assert not model
        check_queries()
        assert engine.events_processed == len(fired)


class TestStorageConservation:
    @given(contexts=st.integers(min_value=1, max_value=300),
           starts=st.lists(st.integers(min_value=0, max_value=299),
                           max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_every_context_lives_in_exactly_one_tier(self, contexts, starts):
        store = ThreadStateStore(rf_bytes=8 * 1024, l2_slots=10)
        for ptid in range(contexts):
            store.register(ptid)
        everyone = list(range(contexts))
        for target in starts:
            if target < contexts:
                store.start_latency(target, evictable=everyone)
        occupancy = store.occupancy()
        assert sum(occupancy.values()) == contexts
        assert occupancy["rf"] <= store.rf_capacity
        assert occupancy["l2"] <= store.l2_capacity

    @given(contexts=st.integers(min_value=1, max_value=100))
    @settings(max_examples=20, deadline=None)
    def test_footprint_arithmetic(self, contexts):
        store = ThreadStateStore()
        for ptid in range(contexts):
            store.register(ptid)
        assert store.footprint_bytes() == contexts * store.context_bytes


class TestWatchBusProperties:
    @given(addrs=st.lists(st.integers(min_value=0, max_value=2**20 // 8 - 1)
                          .map(lambda w: w * 8),
                          min_size=1, max_size=20, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_every_armed_address_triggers(self, addrs):
        memory = Memory()
        watch = memory.watch_bus.watch(addrs, owner="prop")
        hit_lines = set()
        original = set(a // 64 for a in addrs)

        for addr in addrs:
            if watch.armed:
                before = watch.trigger_count
                memory.store(addr, 1)
                assert watch.trigger_count == before + 1
                hit_lines.add(addr // 64)
        assert hit_lines <= original

    @given(addr=st.integers(min_value=0, max_value=2**20).map(
        lambda w: w * 8 % (2**20)))
    @settings(max_examples=30, deadline=None)
    def test_cancel_is_final(self, addr):
        memory = Memory()
        watch = memory.watch_bus.watch(addr)
        watch.cancel()
        memory.store(addr, 1)
        assert watch.trigger_count == 0
        assert memory.watch_bus.watchers_on(addr) == 0


class TestClusterConservation:
    """The cluster's conservation laws must hold at *any* instant --
    including mid-flight at an arbitrary horizon, under loss, admission
    rejection, and hedging: admitted == completed + in_flight per node,
    issued == completed + dropped + in_flight at the service, and every
    shard attempt settles into exactly one accounting bucket."""

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           nodes=st.integers(min_value=1, max_value=6),
           fanout_frac=st.floats(min_value=0.0, max_value=1.0),
           horizon_frac=st.floats(min_value=0.05, max_value=1.5),
           drop=st.sampled_from([0.0, 0.02, 0.1]),
           queue_limit=st.sampled_from([None, 2, 8]),
           hedge=st.sampled_from([None, 40_000]))
    @settings(max_examples=25, deadline=None)
    def test_conserved_at_any_horizon(self, seed, nodes, fanout_frac,
                                      horizon_frac, drop, queue_limit,
                                      hedge):
        from repro.cluster import ClusterConfig, LinkSpec, run_cluster

        fanout = max(1, min(nodes, int(round(fanout_frac * nodes))))
        config = ClusterConfig(nodes=nodes, fanout=fanout, requests=30,
                               load=0.5, queue_limit=queue_limit,
                               hedge_after=hedge,
                               link=LinkSpec(drop_prob=drop))
        horizon = max(1, int(config.horizon() * horizon_frac))
        result = run_cluster(config, seed=seed, horizon=horizon)
        service = result.service
        audit = service.conservation()
        assert audit["ok"], audit
        # the aggregate law, spelled out
        assert service.issued == (service.completed + service.dropped
                                  + service.in_flight)
        # and per node
        for node in service.nodes:
            assert node.admitted == node.completed + node.in_flight()
