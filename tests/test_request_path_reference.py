"""The model-backend request path against reference copies of its
straightforward form.

``LoadBalancer.pick``, ``ProcessorSharingServer.offer``/``_complete``
and the RPC segment walk carry hand-inlined fast paths. The reference
classes below are the plain versions they were derived from: one
candidate list per pick (and a scan where exact ``jsq`` keeps a load
index), a separate progress-advance and re-arm step in the PS server,
and a fresh ``Request`` per RPC segment. Hypothesis drives both sides
with the same inputs and requires identical picks, rng states, finish
times, busy cycles and engine event counts; whole jsq cluster runs at
the sizes perfbench and the CLI use must match the scanning balancer
byte for byte.
"""

import gc
import heapq
import random
import struct
import weakref
from operator import itemgetter
from typing import List, Optional, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cluster.run as cluster_run
import repro.distributed.rpc as rpc
from repro.arch.costs import CostModel
from repro.cluster import (
    ClusterConfig,
    LinkSpec,
    build_cluster,
    drive_workload,
    summarize_run,
)
from repro.cluster.balancer import (
    _INDEX_SLACK,
    POLICIES,
    LoadBalancer,
    push_load,
)
from repro.distributed.rpc import (
    EVENT_LOOP,
    HW_THREADS,
    SW_THREADS,
    RpcServerModel,
)
from repro.errors import ConfigError
from repro.kernel.sched import ProcessorSharingServer, feed_trace
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.workloads.requests import Request


# ----------------------------------------------------------------------
# balancer
# ----------------------------------------------------------------------
class _ReferenceBalancer(LoadBalancer):
    """``pick`` as a filtered candidate list and one key per policy;
    exact ``jsq`` scans every node instead of keeping a load index."""

    def _index_loads(self):
        pass

    def pick(self, exclude=()):
        candidates = [n for n in self.nodes if n not in exclude]
        if not candidates:
            candidates = self.nodes
        self.picks += 1
        if self.policy == "random":
            return self.rng.choice(candidates)
        if self.policy == "round-robin":
            return self._pick_rr(candidates)
        if self.policy == "jsq":
            return min(candidates,
                       key=lambda n: (self._load(n), n.node_id))
        if len(candidates) == 1:
            return candidates[0]
        first, second = self.rng.sample(candidates, 2)
        if (self._load(second), second.node_id) \
                < (self._load(first), first.node_id):
            return second
        return first

    def _pick_rr(self, candidates):
        for _ in range(len(self.nodes)):
            node = self.nodes[self._rr_next % len(self.nodes)]
            self._rr_next = (self._rr_next + 1) % len(self.nodes)
            if node in candidates:
                return node
        return candidates[0]


class _Node:
    """A node reduced to what the balancer reads, moving its load the
    way ``ClusterNode`` does: one admission or finish at a time, each
    pushing the new load onto the jsq load index."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.name = f"node{node_id}"
        self._in_flight = 0
        self.load_index = None
        self.reads = 0

    def in_flight(self) -> int:
        self.reads += 1
        return self._in_flight

    def set_load(self, load: int) -> None:
        while self._in_flight != load:
            self._in_flight += 1 if load > self._in_flight else -1
            if self.load_index is not None:
                push_load(self)


class _Clock:
    """The one engine attribute a stale balancer reads."""

    now = 0


@given(data=st.data(),
       policy=st.sampled_from(POLICIES),
       ids=st.lists(st.integers(min_value=0, max_value=199),
                    min_size=1, max_size=64, unique=True),
       probe_delay=st.sampled_from([0, 3]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=250, deadline=None)
def test_pick_matches_reference(data, policy, ids, probe_delay, seed):
    # hypothesis orders ids arbitrarily: nodes arrive out of id order
    nodes = [_Node(node_id) for node_id in ids]
    clock = _Clock()
    fast = LoadBalancer(nodes, policy, rng=random.Random(seed),
                        probe_delay_cycles=probe_delay, engine=clock)
    ref = _ReferenceBalancer(nodes, policy, rng=random.Random(seed),
                             probe_delay_cycles=probe_delay, engine=clock)
    indexed = policy == "jsq" and probe_delay == 0
    assert (fast._index is not None) == indexed
    excludes = st.one_of(
        st.just(()),
        st.lists(st.sampled_from(nodes), max_size=len(nodes)).map(tuple),
        st.permutations(nodes).map(tuple))          # all excluded
    for _ in range(data.draw(st.integers(min_value=1, max_value=10))):
        for node in nodes:
            node.set_load(data.draw(st.integers(min_value=0, max_value=3)))
        clock.now += data.draw(st.integers(min_value=0, max_value=4))
        exclude = data.draw(excludes)
        reads = [node.reads for node in nodes]
        got = fast.pick(exclude=exclude)
        fast_reads = [node.reads - r for node, r in zip(nodes, reads)]
        want = ref.pick(exclude=exclude)
        ref_reads = [node.reads - r - f
                     for node, r, f in zip(nodes, reads, fast_reads)]
        assert got is want
        assert fast.rng.getstate() == ref.rng.getstate()
        if indexed and not exclude:
            # the index answers without reading any node's load
            assert fast_reads == [0] * len(nodes)
            assert len(fast._index) <= _INDEX_SLACK * len(nodes)
        else:
            assert fast_reads == ref_reads
        assert (fast.picks, fast.probes, fast._rr_next) \
            == (ref.picks, ref.probes, ref._rr_next)


def test_node_feeds_one_load_index():
    nodes = [_Node(0), _Node(1)]
    LoadBalancer(nodes, "jsq")
    with pytest.raises(ConfigError, match="node1 already feeds"):
        LoadBalancer(nodes[1:], "jsq")


# E14's tail-at-scale constants (perfbench's lb_hedged shape)
_E14 = dict(load=0.06, mean_service_cycles=5_000, segments=4,
            rtt_cycles=20_000, threads_per_peer=4)


@pytest.mark.parametrize("config", [
    ClusterConfig(nodes=64, policy="jsq", fanout=8, requests=1000,
                  link=LinkSpec(drop_prob=0.01), hedge_after=160_000,
                  **_E14),
    ClusterConfig(nodes=64, policy="jsq", fanout=8, requests=1000,
                  queue_limit=8, **_E14),
    ClusterConfig(nodes=256, policy="jsq", fanout=8, requests=1500),
    ClusterConfig(nodes=32, policy="jsq", fanout=4, requests=400,
                  racks=4, placement="same-rack"),
], ids=["lb-hedged", "queue-limit", "256-nodes", "same-rack"])
def test_indexed_jsq_run_matches_scanning_reference(config):
    outcomes = []
    for balancer_cls in (LoadBalancer, _ReferenceBalancer):
        streams = RngStreams(0xC0FFEE)
        with mock.patch.object(cluster_run, "LoadBalancer", balancer_cls):
            service = build_cluster(config, streams)
        assert type(service.balancer) is balancer_cls
        assert (service.balancer._index is not None) \
            == (balancer_cls is LoadBalancer)
        drive_workload(service, config, streams)
        service.engine.run(until=config.horizon())
        samples = service.recorder.samples
        outcomes.append((summarize_run(service),
                         struct.pack(f"<{len(samples)}d", *samples),
                         service.engine.events_processed))
    assert outcomes[0] == outcomes[1]
    summary = outcomes[0][0]
    assert summary["conserved"] and summary["completed"] > 0
    if config.hedge_after is not None:
        assert summary["hedges"] > 0 and summary["wire_drops"] > 0
    if config.queue_limit is not None:
        assert summary["rejected"] > 0


# ----------------------------------------------------------------------
# processor sharing
# ----------------------------------------------------------------------
class _ReferencePS(ProcessorSharingServer):
    """The PS server with a separate advance step and a re-arm call."""

    def offer(self, request):
        self._advance()
        request.start_time = float(self.engine._now)
        svc = float(request.service_cycles)
        key = (svc if svc > 1.0 else 1.0) + self._progress
        heapq.heappush(self._heap, (key, next(self._seq), request))
        self._reschedule()

    def _advance(self):
        now = self.engine._now
        elapsed = now - self._last_update
        self._last_update = now
        n = len(self._heap)
        if not n or elapsed <= 0:
            return
        servers = self.servers
        self.busy_cycles += elapsed * (n if n < servers else servers)
        self._progress += elapsed * (1.0 if n <= servers else servers / n)

    def _reschedule(self):
        heap = self._heap
        if not heap:
            return
        min_remaining = heap[0][0] - self._progress
        n = len(heap)
        servers = self.servers
        slowdown = 1.0 if n <= servers else n / servers
        delay = int(round(min_remaining * slowdown))
        due = self.engine._now + (delay if delay > 1 else 1)
        pending = self._pending_completion
        if pending is not None:
            if due >= self._deadline:
                return
            pending.cancel()
        self._deadline = due
        self._pending_completion = self.engine.at(due, self._complete)

    def _complete(self):
        self._pending_completion = None
        self._advance()
        heap = self._heap
        threshold = self._progress + self.COMPLETION_EPSILON
        if heap and heap[0][0] <= threshold:
            first = heapq.heappop(heap)
            if not (heap and heap[0][0] <= threshold):
                self._finish(first[2])
            else:
                finished = [first]
                while heap and heap[0][0] <= threshold:
                    finished.append(heapq.heappop(heap))
                finished.sort(key=itemgetter(1))
                for _key, _seq, request in finished:
                    self._finish(request)
        self._reschedule()


class _FinishLog:
    """A ``done`` hook that logs ``(req_id, finish_time)`` in order."""

    def __init__(self):
        self.finished: List[Tuple[int, float]] = []

    def fire(self, request: Request) -> None:
        self.finished.append((request.req_id, request.finish_time))


class _CountingEngine(Engine):
    """An engine that counts ``at`` calls (the PS server's only
    scheduling entry point)."""

    scheduled = 0

    def at(self, time, fn, *args):
        self.scheduled += 1
        return super().at(time, fn, *args)


_SERVICE = st.one_of(st.integers(min_value=0, max_value=9_000),
                     st.floats(min_value=0.0, max_value=9_000.0))


@given(jobs=st.lists(st.tuples(st.integers(min_value=0, max_value=4_000),
                               _SERVICE),
                     min_size=1, max_size=40),
       servers=st.integers(min_value=1, max_value=4))
@settings(max_examples=200, deadline=None)
def test_fused_ps_matches_reference(jobs, servers):
    outcomes = []
    for cls in (ProcessorSharingServer, _ReferencePS):
        engine = _CountingEngine()
        server = cls(engine, servers=servers)
        log = _FinishLog()
        arrival, trace = 0, []
        for req_id, (gap, service) in enumerate(jobs):
            arrival += gap
            trace.append(Request(req_id, arrival_time=arrival,
                                 service_cycles=service,
                                 payload={"done": log}))
        feed_trace(engine, server, trace)
        engine.run()
        outcomes.append((log.finished, server.busy_cycles,
                         engine.events_processed, engine.scheduled,
                         server.completed))
    assert outcomes[0] == outcomes[1]
    assert len(outcomes[0][0]) == len(jobs)


# ----------------------------------------------------------------------
# RPC segment walk
# ----------------------------------------------------------------------
class _ReferenceInflight:
    """The segment walk with one fresh ``Request`` per segment."""

    __slots__ = ("model", "req_id", "segments", "rtt", "on_done",
                 "arrived", "index")

    def __init__(self, model, req_id, segments, rtt, on_done):
        self.model = model
        self.req_id = req_id
        self.segments = segments
        self.rtt = rtt if rtt > 1 else 1
        self.on_done = on_done
        self.arrived = 0
        self.index = 0

    def start(self):
        model = self.model
        model.active += 1
        if model.active > model.peak_concurrency:
            model.peak_concurrency = model.active
        self.arrived = model.engine._now
        self._offer_segment()

    def _offer_segment(self):
        model = self.model
        overhead = model.segment_overhead_cycles()
        seg = int(round(self.segments[self.index]))
        demand = (seg if seg > 1 else 1) + overhead
        model._seg_counter += 1
        model.cpu.offer(Request(
            req_id=model._seg_counter,
            arrival_time=float(model.engine._now),
            service_cycles=demand,
            payload={"done": self}))

    def fire(self, _request: Optional[Request] = None):
        self.index += 1
        model = self.model
        if self.index < len(self.segments):
            model.engine.after(self.rtt, self._offer_segment)
            return
        model.active -= 1
        model.completed += 1
        model.recorder.record(model.engine._now - self.arrived)
        if self.on_done is not None:
            self.on_done()


def _run_rpc(requests, rtt, cores, design, resident, reference):
    engine = Engine()
    model = RpcServerModel(engine, design, CostModel(),
                           cores=cores if design.discipline == "ps" else 1,
                           resident_threads=resident)
    if reference and design.discipline == "ps":
        model.cpu = _ReferencePS(engine, name=model.cpu.name,
                                 servers=cores)
    offered: List[Tuple[int, int, float]] = []
    offer = model.cpu.offer

    def spy(request):
        offered.append((engine.now, request.req_id, request.service_cycles))
        offer(request)
    model.cpu.offer = spy
    done: List[Tuple[int, int]] = []
    arrival = 0
    for req_id, (gap, segments) in enumerate(requests):
        arrival += gap
        engine.at(arrival, model.submit, req_id, segments, rtt,
                  lambda req_id=req_id: done.append((req_id, engine.now)))
    engine.run()
    return (done, offered, model.recorder.samples,
            model.cpu.recorder.samples, model.cpu.busy_cycles,
            engine.events_processed, model.peak_concurrency,
            model.completed)


@given(requests=st.lists(
           st.tuples(st.integers(min_value=0, max_value=20_000),
                     st.lists(st.floats(min_value=0.0, max_value=8_000.0),
                              min_size=1, max_size=4)),
           min_size=1, max_size=15),
       rtt=st.integers(min_value=0, max_value=30_000),
       cores=st.integers(min_value=1, max_value=3),
       design=st.sampled_from([HW_THREADS, SW_THREADS, EVENT_LOOP]),
       resident=st.sampled_from([None, 0, 40]))
@settings(max_examples=120, deadline=None)
def test_rpc_one_request_per_rpc_matches_reference(requests, rtt, cores,
                                                   design, resident):
    fast = _run_rpc(requests, rtt, cores, design, resident, reference=False)
    with mock.patch.object(rpc, "_InflightRequest", _ReferenceInflight):
        ref = _run_rpc(requests, rtt, cores, design, resident,
                       reference=True)
    assert fast == ref
    assert fast[-1] == len(requests)


def test_finished_inflight_request_is_freed_without_gc():
    """The reused segment ``Request`` and its handler point at each
    other through ``payload["done"]``; the last segment must break
    that cycle so reference counting alone frees both."""
    engine = Engine()
    model = RpcServerModel(engine, HW_THREADS, CostModel())
    jobs = []
    offer = model.cpu.offer

    def spy(request):
        jobs.append(weakref.ref(request))
        offer(request)
    model.cpu.offer = spy
    gc.disable()
    try:
        model.submit(1, [500.0, 700.0, 300.0], 2_000)
        engine.run()
        assert model.completed == 1
        assert len(jobs) == 3
        assert all(job() is None for job in jobs)
    finally:
        gc.enable()
