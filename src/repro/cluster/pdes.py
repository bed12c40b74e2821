"""Parallel-in-time cluster runs: conservative PDES over shard workers.

The paper's core asymmetry -- cross-domain transitions are cheap,
cross-*machine* communication is not -- is exactly the property a
conservative parallel discrete-event scheme exploits. Every message
between the cluster front-end and a node pays at least the
:class:`~repro.cluster.fabric.LinkSpec` base latency, so that latency
is guaranteed *lookahead*: a shard that has seen every message sent by
time ``T`` can safely simulate through ``T + lookahead`` without ever
receiving an event from the past.

Topology
--------
The cluster is a star: nodes talk only to the client, never to each
other. That makes the partition simple -- node ``i`` lives on shard
``i % shards``, each shard runs its own :class:`~repro.sim.engine.Engine`,
and the client side (front-end, balancer, workload, latency recorder)
runs on the coordinating engine. Cross-shard sends become timestamped
tuples over pipes, delivered into the destination engine at
``send_time + sampled link delay``.

Synchronization schedule: the decoupled pipeline
------------------------------------------------
Only outbound-independent configurations shard: ``random`` /
``round-robin`` routing without hedging
(:data:`~repro.cluster.run.OUTBOUND_INDEPENDENT`). Their outbound
traffic is a pure function of the named RNG streams, so a first
engine-less pass replays the draw sequence and streams every request
to the workers ahead of time. Workers then run big adaptive windows
while the client replays accounting one window behind --
synchronization cost amortizes to nothing and the window size
self-tunes toward a target event count per batch. Load-aware routing
(``jsq``, ``p2c``) and hedging make the next routing decision depend
on node state, so they cannot be pipelined; :class:`ClusterConfig`
rejects them with ``shards > 1`` as a :class:`ConfigError`.

Workers waiting at a window barrier spin before parking (the
"Switchless Calls Made Configless" idea): the spin budget grows on
spin-hits and shrinks on parks, so busy pipelines never pay a sleep
and idle ones never burn a core.

Determinism
-----------
The client runs the stock single-engine front-end: a plain
:class:`~repro.cluster.service.ClusterService` and
:class:`~repro.cluster.fabric.Fabric`, wired by the same function as
:func:`~repro.cluster.run.build_cluster`, over proxy nodes. Every
random draw therefore happens on the client, from the same named
streams and in the same per-stream order as the single-engine run:
the balancer, arrival and service-time streams, and both directions of
every per-link wire stream. A worker draws only what its nodes draw
internally; it reports each attempt's admission verdict and finish
time, nothing else. Attempt ids are assigned client-side at launch, so
both sides name attempts identically. The summary is byte-identical
to ``shards=1`` (asserted by tests and CI, and by the mirror
cross-check on every run). The caveat is same-cycle ties, which an
engine breaks by insertion order. On a shard engine, injection is
staged at the original send time to make the insertion order match in
all but pathological collisions. On the client, a node's finish and a
delivery to that node in the same cycle may replay in the other
order; verdicts and draws do not depend on it, but the node's obs
busy/idle track can then split one busy span in two.
"""

from __future__ import annotations

import multiprocessing
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.arch.costs import CostModel
from repro.cluster.balancer import LoadBalancer
from repro.cluster.node import ClusterNode
from repro.cluster.service import CLIENT, ClusterService
from repro.cluster.run import (
    OUTBOUND_INDEPENDENT,
    ClusterConfig,
    ClusterRunResult,
    build_node,
    drive_workload,
    eligible_nodes,
    node_link_spec,
    request_lookahead,
    summarize_run,
    wire_front_end,
)
from repro.errors import ConfigError, SimulationError
from repro.obs.timeline import ThreadState
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.service import Exponential, ServiceDistribution


class CausalityError(SimulationError):
    """The conservative protocol was violated: a cross-shard message
    would have to be delivered in a shard's already-committed past."""


#: Transports for the shard workers.
TRANSPORTS = ("process", "inline")

#: Decoupled-mode tuning: per-shard engine events to aim for in one
#: window (big enough to amortize a pipe round-trip, small enough to
#: keep batches below pipe-buffer pathologies), and the bounds the
#: adaptive window may move between.
_TARGET_BATCH_EVENTS = 40_000
_MIN_CHUNK_ARRIVALS = 512


def shard_node_ids(nodes: int, shards: int) -> List[List[int]]:
    """Striped partition: node ``i`` lives on shard ``i % shards`` (the
    same striping racks use, so racks spread evenly over shards)."""
    if not 1 <= shards <= nodes:
        raise ConfigError(
            f"need 1..{nodes} shards for {nodes} nodes, got {shards}")
    return [list(range(s, nodes, shards)) for s in range(shards)]


# ----------------------------------------------------------------------
# client side: proxy nodes
# ----------------------------------------------------------------------
class _ProxyNode:
    """Client-side stand-in for a remote node.

    Speaks :class:`ClusterNode`'s ``offer`` protocol, so the stock
    front-end and fabric drive it and make every wire draw themselves.
    The admission verdict comes from the worker: an attempt whose id is
    in ``rejected_ids`` is shed, any other is admitted and its
    ``on_done`` held until :meth:`remote_finished` replays the worker's
    finish at its exact timestamp. The counters the conservation audit
    and obs snapshot read move at those timestamps, so busy/idle
    timelines follow the single-engine run (up to the same-cycle caveat
    in the module docstring). The balancer never reads
    them: sharded runs route without node state. ``busy_cycles`` is
    folded in from the worker's final stats at the end of the run.
    """

    def __init__(self, engine: Engine, node_id: int, design) -> None:
        self.engine = engine
        self.node_id = node_id
        self.name = f"node{node_id}"
        self.admitted = 0
        self.completed = 0
        self.rejected = 0
        self._in_flight = 0
        self._busy_cycles = 0
        #: attempt ids the worker shed at admission, consulted at
        #: delivery time (the worker has committed it by then)
        self.rejected_ids: set = set()
        self._on_done: Dict[int, Optional[Callable[[], None]]] = {}
        self._obs_timeline = None
        self._obs_track = 0
        import repro.obs as obs
        session = obs.active()
        if session is not None:
            prefix = session.register_source("cluster.node",
                                             self._fill_metrics)
            self._obs_timeline = session.timeline
            self._obs_track = session.register_track(
                f"{prefix}.{design.name}")

    def in_flight(self) -> int:
        return self._in_flight

    def busy_cycles(self) -> int:
        return self._busy_cycles

    def conserved(self) -> bool:
        return self.admitted == self.completed + self._in_flight

    def offer(self, request_id: int, segment_cycles: Sequence[float],
              rtt_cycles: int,
              on_done: Optional[Callable[[], None]] = None) -> bool:
        if request_id in self.rejected_ids:
            self.rejected_ids.remove(request_id)
            self.rejected += 1
            return False
        self.admitted += 1
        self._in_flight += 1
        if self._obs_timeline is not None and self._in_flight == 1:
            self._obs_timeline.transition(self._obs_track, 0,
                                          ThreadState.RUNNING,
                                          self.engine.now)
        self._on_done[request_id] = on_done
        return True

    def remote_finished(self, attempt_id: int) -> None:
        """The worker's node finished ``attempt_id`` now."""
        try:
            on_done = self._on_done.pop(attempt_id)
        except KeyError:
            raise SimulationError(
                f"shard protocol error: worker finished attempt "
                f"{attempt_id} the client never launched") from None
        self._in_flight -= 1
        self.completed += 1
        if self._obs_timeline is not None and self._in_flight == 0:
            self._obs_timeline.transition(self._obs_track, 0,
                                          ThreadState.MWAIT,
                                          self.engine.now)
        if on_done is not None:
            on_done()

    def _fill_metrics(self, registry, prefix: str) -> None:
        registry.inc(f"{prefix}.admitted", self.admitted)
        registry.inc(f"{prefix}.completed", self.completed)
        registry.inc(f"{prefix}.rejected", self.rejected)
        registry.inc(f"{prefix}.busy_cycles", self.busy_cycles())
        registry.set(f"{prefix}.in_flight", self._in_flight)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<_ProxyNode {self.name} in_flight={self._in_flight}>"


@contextmanager
def _obs_redirected(session):
    """Swap the ambient obs stack for a worker-local one while building
    shard workers.

    The client-side proxies own every ``cluster.*`` registration, and a
    worker's internals (queueing servers, ISA machines, caches) must not
    leak sources into the coordinator's session -- a sharded snapshot
    has to carry exactly the single-engine namespaces. When ``session``
    is not None the worker's internals register *there* instead, and the
    coordinator merges the harvested result back at the end of the run
    (:func:`_merge_worker_obs`); None silences them entirely.
    """
    import repro.obs as obs
    saved = obs._ACTIVE[:]
    obs._ACTIVE.clear()
    if session is not None:
        obs._ACTIVE.append(session)
    try:
        yield
    finally:
        del obs._ACTIVE[:]
        obs._ACTIVE.extend(saved)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class ShardWorker:
    """One shard: its nodes on a private engine, plus the conservative
    protocol edge (causality-checked injection, bounded advances,
    batched outputs). It sends home admission verdicts and finish
    times only; the client's fabric carries every message."""

    def __init__(self, config: ClusterConfig, node_ids: Sequence[int],
                 collect_obs: bool = False,
                 collect_spans: bool = False) -> None:
        self.engine = Engine()
        costs = CostModel()
        self.segments = config.segments
        self.rtt_cycles = config.rtt_cycles
        self.nodes: Dict[int, ClusterNode] = {}
        # node internals (queueing servers, ISA machines) register with
        # a worker-local session when the coordinator is collecting;
        # per-node marks let export_obs ship them back per node so the
        # coordinator can re-register them in global node order
        import repro.obs as obs
        import repro.obs.spans as spans
        self.obs_session = obs.Session("shard") if collect_obs else None
        # distributed tracing: node-side span fragments land in a
        # worker-local store (attempt ids are globally unique, so the
        # coordinator's merge is a disjoint union) and ship home with
        # the final stats
        self.span_store = spans.SpanStore() if collect_spans else None
        self._node_order = list(node_ids)
        self._obs_marks: List[Tuple[int, int, int]] = []
        with _obs_redirected(self.obs_session), \
                spans._redirected(self.span_store):
            for node_id in node_ids:
                self._obs_marks.append(self._obs_mark())
                self.nodes[node_id] = build_node(config, self.engine,
                                                 node_id, costs,
                                                 register_obs=False)
            self._obs_marks.append(self._obs_mark())
        self._committed = 0
        #: this window's (node_id, attempt_id) admission rejections and
        #: (finish time, node_id, attempt_id) completions
        self._rejects: List[Tuple[int, int]] = []
        self._finishes: List[Tuple[int, int, int]] = []

    # -- protocol edge ----------------------------------------------
    def inject(self,
               reqs: Sequence[Tuple[int, int, int, int, float]]) -> None:
        """Receive shipped requests (send_ts, deliver_ts, attempt_id,
        node_id, service cycles)."""
        engine = self.engine
        committed = self._committed
        for send_ts, deliver_ts, attempt_id, node_id, cycles in reqs:
            if deliver_ts <= committed:
                raise CausalityError(
                    f"request {attempt_id} would be delivered at "
                    f"t={deliver_ts}, but this shard has already "
                    f"committed t={committed}")
            node = self.nodes[node_id]
            if send_ts > committed:
                # stage the scheduling at the original send time so the
                # engine's insertion order -- its same-timestamp
                # tie-break -- matches the single-engine run
                engine.at(send_ts, self._deliver_later, deliver_ts,
                          attempt_id, node, cycles)
            else:
                engine.at(deliver_ts, self._deliver, attempt_id, node,
                          cycles)

    def advance(self, until: int) -> Tuple[List, List, int]:
        """Run through ``until`` (inclusive) and return this window's
        (rejects, finishes, total events processed)."""
        if until < self._committed:
            raise CausalityError(
                f"cannot advance to t={until}: already committed "
                f"t={self._committed}")
        self.engine.run(until=until)
        self._committed = until
        batch = (self._rejects, self._finishes,
                 self.engine.events_processed)
        self._rejects, self._finishes = [], []
        return batch

    def final_stats(self) -> Dict[int, Tuple[int, int, int, int, int]]:
        return {node_id: (node.admitted, node.completed, node.rejected,
                          node.in_flight(), node.busy_cycles())
                for node_id, node in self.nodes.items()}

    # -- observability export ---------------------------------------
    def _obs_mark(self) -> Tuple[int, int, int]:
        session = self.obs_session
        if session is None:
            return (0, 0, 0)
        return (len(session.sources), len(session.machines),
                session._next_track)

    def export_obs(self) -> Optional[Dict[str, Any]]:
        """Everything the worker-local session collected, as picklable
        per-node blocks (see :mod:`repro.obs.merge`): harvested source
        fills, the registry entries each source wrote, timeline rows,
        and machine digests."""
        session = self.obs_session
        if session is None:
            return None
        from repro.obs.merge import (harvest_source, machine_digest,
                                     split_registry)
        prefixes = [prefix for prefix, _fill in session.sources]
        per_prefix, leftover = split_registry(session.registry, prefixes)
        timeline = session.timeline
        track_node: Dict[int, int] = {}
        blocks: Dict[int, Dict[str, Any]] = {}
        for pos, node_id in enumerate(self._node_order):
            s0, m0, t0 = self._obs_marks[pos]
            s1, m1, t1 = self._obs_marks[pos + 1]
            for track in range(t0, t1):
                track_node[track] = node_id
            blocks[node_id] = {
                "sources": [{
                    "kind": session.source_kinds[i],
                    "prefix": session.sources[i][0],
                    "fill": harvest_source(session.sources[i][1]),
                    "registry": per_prefix[session.sources[i][0]],
                } for i in range(s0, s1)],
                "tracks": [(track, timeline.core_names.get(track, ""))
                           for track in range(t0, t1)],
                "spans": [], "instants": [], "open": [],
                "machines": [machine_digest(machine)
                             for machine in session.machines[m0:m1]],
            }
        for span in timeline.spans:
            blocks[track_node[span.core_id]]["spans"].append(
                (span.core_id, span.ptid, span.state, span.begin, span.end))
        for instant in timeline.instants:
            blocks[track_node[instant.core_id]]["instants"].append(
                (instant.core_id, instant.ptid, instant.name, instant.at))
        for core_id, ptid, state, begin in timeline.open_spans():
            blocks[track_node[core_id]]["open"].append(
                (core_id, ptid, state, begin))
        return {"nodes": blocks, "extra": leftover,
                "dropped": timeline.dropped}

    def export_spans(self) -> Optional[Dict[str, Any]]:
        """The worker's span fragments, picklable, or None when
        tracing is off."""
        if self.span_store is None:
            return None
        return self.span_store.export_fragments()

    # -- simulation callbacks ---------------------------------------
    def _deliver_later(self, deliver_ts: int, attempt_id: int,
                       node: ClusterNode, cycles: float) -> None:
        self.engine.at(deliver_ts, self._deliver, attempt_id, node, cycles)

    def _deliver(self, attempt_id: int, node: ClusterNode,
                 cycles: float) -> None:
        per_segment = [max(1.0, cycles) / self.segments] * self.segments
        accepted = node.offer(
            attempt_id, per_segment, self.rtt_cycles,
            on_done=lambda: self._finished(attempt_id, node))
        if not accepted:
            self._rejects.append((node.node_id, attempt_id))

    def _finished(self, attempt_id: int, node: ClusterNode) -> None:
        self._finishes.append((self.engine.now, node.node_id, attempt_id))


# ----------------------------------------------------------------------
# transports
# ----------------------------------------------------------------------
class SpinParkWaiter:
    """Spin-then-park waiting with an online spin budget.

    The self-tuning idea from "SGX Switchless Calls Made Configless":
    instead of a hand-picked spin count, the budget doubles every time
    spinning pays off and halves every time the waiter has to park, so
    a busy pipeline converges to pure spinning and an idle one to
    immediate parking.
    """

    def __init__(self, min_spin: int = 16, max_spin: int = 4096) -> None:
        self.min_spin = min_spin
        self.max_spin = max_spin
        self.spin_limit = min_spin
        self.spin_hits = 0
        self.parks = 0

    def wait(self, poll: Callable[..., bool]) -> None:
        """Block until ``poll()`` says data is ready."""
        for _ in range(self.spin_limit):
            if poll(0):
                self.spin_hits += 1
                self.spin_limit = min(self.max_spin, self.spin_limit * 2)
                return
        self.parks += 1
        self.spin_limit = max(self.min_spin, self.spin_limit // 2)
        while not poll(0.05):
            pass


class _InlineShard:
    """In-process transport: the worker runs synchronously on the
    coordinator's thread. No parallelism -- this is the debug and
    determinism-test mode, and the reference the process transport
    must match byte for byte."""

    def __init__(self, config: ClusterConfig, node_ids: Sequence[int],
                 collect_obs: bool, collect_spans: bool) -> None:
        self.worker = ShardWorker(config, node_ids,
                                  collect_obs=collect_obs,
                                  collect_spans=collect_spans)
        self._batch: Optional[Tuple] = None
        self.obs_payload: Optional[Dict[str, Any]] = None
        self.span_payload: Optional[Dict[str, Any]] = None
        self.spin_hits = 0
        self.parks = 0

    def post_reqs(self, reqs: Sequence) -> None:
        if reqs:
            self.worker.inject(reqs)

    def post_advance(self, until: int) -> None:
        self._batch = self.worker.advance(until)

    def recv_batch(self) -> Tuple:
        batch, self._batch = self._batch, None
        return batch

    def finish(self) -> Dict[int, Tuple]:
        self.obs_payload = self.worker.export_obs()
        self.span_payload = self.worker.export_spans()
        return self.worker.final_stats()

    def stop(self) -> None:
        pass


def _shard_main(conn, config: ClusterConfig, node_ids: Sequence[int],
                collect_obs: bool, collect_spans: bool) -> None:
    """Worker-process entry point: a command loop over the pipe."""
    try:
        worker = ShardWorker(config, node_ids,
                             collect_obs=collect_obs,
                             collect_spans=collect_spans)
        waiter = SpinParkWaiter()
        while True:
            waiter.wait(conn.poll)
            msg = conn.recv()
            tag = msg[0]
            if tag == "reqs":
                worker.inject(msg[1])
            elif tag == "advance":
                conn.send(("batch",) + worker.advance(msg[1]))
            elif tag == "finish":
                conn.send(("stats", worker.final_stats(),
                           waiter.spin_hits, waiter.parks,
                           worker.export_obs(), worker.export_spans()))
            elif tag == "stop":
                return
            else:  # pragma: no cover - protocol guard
                raise SimulationError(f"unknown shard command {tag!r}")
    except EOFError:  # coordinator died; nothing left to report to
        return
    except Exception:  # pragma: no cover - shipped to the coordinator
        import traceback
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


class _ProcessShard:
    """Worker-process transport over a duplex pipe.

    The protocol is strict request-reply per window (requests and the
    advance command flow only while the worker is idle at the barrier,
    and exactly one batch reply is collected per advance), which makes
    pipe-buffer deadlock impossible by construction. A broken pipe
    means the worker died; it surfaces as a :class:`SimulationError`
    naming the shard and the worker's exit code.
    """

    def __init__(self, index: int, config: ClusterConfig,
                 node_ids: Sequence[int], ctx, collect_obs: bool,
                 collect_spans: bool) -> None:
        self.index = index
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_shard_main,
                                args=(child, config, list(node_ids),
                                      collect_obs, collect_spans),
                                daemon=True)
        self.proc.start()
        child.close()
        self.waiter = SpinParkWaiter()
        self.obs_payload: Optional[Dict[str, Any]] = None
        self.span_payload: Optional[Dict[str, Any]] = None
        self.spin_hits = 0
        self.parks = 0

    def _died(self, err: Exception) -> SimulationError:
        # the pipe only breaks when the worker is gone: reap it so the
        # error can say how it ended
        self.proc.join(timeout=1)
        return SimulationError(
            f"shard {self.index} worker (pid {self.proc.pid}) died "
            f"mid-run with exit code {self.proc.exitcode} "
            f"({type(err).__name__} on its pipe)")

    def _send(self, msg: Tuple) -> None:
        try:
            self.conn.send(msg)
        except OSError as err:  # BrokenPipeError, ConnectionResetError
            raise self._died(err) from err

    def post_reqs(self, reqs: Sequence) -> None:
        if reqs:
            self._send(("reqs", reqs))

    def post_advance(self, until: int) -> None:
        self._send(("advance", until))

    def _recv(self) -> Tuple:
        try:
            self.waiter.wait(self.conn.poll)
            msg = self.conn.recv()
        except (EOFError, OSError) as err:
            raise self._died(err) from err
        if msg[0] == "error":
            raise SimulationError(
                f"shard {self.index} worker failed:\n{msg[1]}")
        return msg

    def recv_batch(self) -> Tuple:
        msg = self._recv()
        if msg[0] != "batch":  # pragma: no cover - protocol guard
            raise SimulationError(f"expected a batch, got {msg[0]!r}")
        return msg[1:]

    def finish(self) -> Dict[int, Tuple]:
        self._send(("finish",))
        msg = self._recv()
        if msg[0] != "stats":  # pragma: no cover - protocol guard
            raise SimulationError(f"expected stats, got {msg[0]!r}")
        self.spin_hits, self.parks = msg[2], msg[3]
        self.obs_payload = msg[4]
        self.span_payload = msg[5]
        return msg[1]

    def stop(self) -> None:
        try:
            self.conn.send(("stop",))
        except (OSError, BrokenPipeError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass
        self.proc.join(timeout=10)
        if self.proc.is_alive():  # pragma: no cover - hung worker
            self.proc.terminate()
            self.proc.join(timeout=5)


# ----------------------------------------------------------------------
# the decoupled fast path: engine-less outbound generation
# ----------------------------------------------------------------------
class _NodeStub:
    """Identity-only node for the generation pass's balancer."""

    __slots__ = ("node_id", "name")

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.name = f"node{node_id}"


def _outbound_chunks(config: ClusterConfig, seed: int,
                     distribution: Optional[ServiceDistribution],
                     horizon: int, nshards: int,
                     arrivals_per_chunk: int = _MIN_CHUNK_ARRIVALS):
    """Replay the client's outbound draw sequence without an engine
    (sound because a sharded config routes by an
    :data:`OUTBOUND_INDEPENDENT` policy without hedging).

    Yields ``(frontier, per_shard_requests)``: after a chunk is
    consumed, every request sent at or before ``frontier`` has been
    produced. Draw-for-draw identical to the live front-end: service
    draws, then per shard a balancer pick and the request-wire
    drop/delay draws, then the next inter-arrival gap -- each on the
    same named stream the live run uses, so both passes see identical
    sequences.
    """
    label = config.workload_label()
    streams = RngStreams(seed)
    stubs = [_NodeStub(node_id) for node_id in range(config.nodes)]
    balancer = LoadBalancer(eligible_nodes(config, stubs), config.policy,
                            rng=streams.stream(f"{label}.lb"))
    specs = {}
    rngs = {}
    for stub in stubs:
        specs[stub.node_id] = node_link_spec(config, stub.node_id)
        rngs[stub.node_id] = streams.stream(
            f"{label}.net.{CLIENT}->{stub.name}")
    arrivals = PoissonArrivals(config.mean_gap_cycles())
    gaps = arrivals.gaps(streams.stream(f"{label}.arrivals"))
    service_rng = streams.stream(f"{label}.service")
    distribution = distribution or Exponential(config.mean_service_cycles)

    now = 0
    issued = 0
    attempt = 0
    chunk: List[List[Tuple[int, int, int, int, float]]] = \
        [[] for _ in range(nshards)]
    pending = 0
    while issued < config.requests:
        now += max(1, int(round(next(gaps))))
        if now > horizon:
            break
        issued += 1
        draws = [distribution.sample(service_rng)
                 for _ in range(config.fanout)]
        for cycles in draws:
            node = balancer.pick()
            attempt += 1
            spec = specs[node.node_id]
            rng = rngs[node.node_id]
            if spec.drop_prob > 0.0 and rng.random() < spec.drop_prob:
                continue  # dropped on the request wire: never ships
            delay = spec.sample_delay(rng)
            chunk[node.node_id % nshards].append(
                (now, now + delay, attempt, node.node_id, cycles))
        pending += 1
        if pending >= arrivals_per_chunk:
            yield now, chunk
            chunk = [[] for _ in range(nshards)]
            pending = 0
    yield horizon, chunk


# ----------------------------------------------------------------------
# coordinator schedules
# ----------------------------------------------------------------------
def _min_slack(per_shard: Sequence[Sequence[Tuple]],
               current: Optional[int]) -> Optional[int]:
    for reqs in per_shard:
        for send_ts, deliver_ts, *_rest in reqs:
            slack = deliver_ts - send_ts
            if current is None or slack < current:
                current = slack
    return current


def _run_decoupled(service: ClusterService, shards: Sequence,
                   config: ClusterConfig, seed: int,
                   distribution: Optional[ServiceDistribution],
                   horizon: int) -> Dict[str, Any]:
    """Pipelined schedule for outbound-independent configurations: the
    generation pass streams requests ahead, workers run adaptive
    windows, and the client replays window k while the workers compute
    window k+1."""
    engine = service.engine
    proxies = service.nodes
    lookahead = request_lookahead(config)
    nshards = len(shards)
    chunks = _outbound_chunks(config, seed, distribution, horizon, nshards)
    frontier = 0
    exhausted = False
    min_slack: Optional[int] = None

    def generate_to(target: int) -> None:
        nonlocal frontier, exhausted, min_slack
        while not exhausted and frontier < target:
            try:
                frontier, per_shard = next(chunks)
            except StopIteration:
                exhausted = True
                frontier = horizon
                return
            min_slack = _min_slack(per_shard, min_slack)
            for shard, reqs in zip(shards, per_shard):
                shard.post_reqs(reqs)

    # initial window: ~a chunk of arrivals, never below the lookahead
    window = max(lookahead,
                 int(config.mean_gap_cycles() * _MIN_CHUNK_ARRIVALS))
    max_window = max(window, horizon // 4)
    windows = 0
    last_events = [0] * nshards

    target = min(horizon, window)
    generate_to(target)
    for shard in shards:
        shard.post_advance(target)
    while True:
        batches = [shard.recv_batch() for shard in shards]
        deltas = []
        for i, (rejects, finishes, events) in enumerate(batches):
            # inject the window's verdicts before the client replays
            # past their timestamps
            for node_id, attempt_id in rejects:
                proxies[node_id].rejected_ids.add(attempt_id)
            for ts, node_id, attempt_id in finishes:
                engine.at(ts, proxies[node_id].remote_finished, attempt_id)
            deltas.append(events - last_events[i])
            last_events[i] = events
        finished = target
        windows += 1
        if finished < horizon:
            # adapt toward the target batch size, then launch the next
            # window before replaying this one (the overlap)
            busiest = max(deltas)
            if busiest < _TARGET_BATCH_EVENTS // 2:
                window = min(max_window, window * 2)
            elif busiest > _TARGET_BATCH_EVENTS * 2:
                window = max(lookahead, window // 2)
            target = min(horizon, finished + window)
            generate_to(target)
            for shard in shards:
                shard.post_advance(target)
            engine.run(until=finished)
        else:
            engine.run(until=finished)
            break
    return {"mode": "decoupled", "lookahead": lookahead,
            "windows": windows, "min_slack": min_slack,
            "worker_events": sum(last_events)}


def _fold_final_stats(proxies: Sequence[_ProxyNode],
                      finals: Sequence[Dict[int, Tuple]]) -> None:
    """Cross-check every proxy mirror against the worker's ground truth
    and fold in the one quantity only the worker knows (busy cycles)."""
    merged: Dict[int, Tuple] = {}
    for stats in finals:
        merged.update(stats)
    for proxy in proxies:
        admitted, completed, rejected, in_flight, busy = merged[proxy.node_id]
        mirror = (proxy.admitted, proxy.completed, proxy.rejected,
                  proxy.in_flight())
        truth = (admitted, completed, rejected, in_flight)
        if mirror != truth:
            raise SimulationError(
                f"shard mirror diverged for {proxy.name}: client saw "
                f"(admitted, completed, rejected, in_flight)={mirror}, "
                f"worker reported {truth}")
        proxy._busy_cycles = busy


def _merge_worker_obs(session, payloads: Sequence[Optional[Dict]]) -> None:
    """Replay the workers' harvested observability into the client
    session, in global node order, so per-kind source indices (and with
    them every metric name) come out exactly as the single-engine run
    would have allocated them. Byte-identical for both backends: every
    digested quantity is a pure function of the simulation history
    (host-engine artifacts are excluded at the harvest itself, see
    :mod:`repro.obs.merge`)."""
    from repro.obs.merge import import_timeline, merge_at, replay_source
    blocks: Dict[int, Dict[str, Any]] = {}
    extras = []
    dropped = 0
    for payload in payloads:
        if payload is None:
            continue
        blocks.update(payload["nodes"])
        extras.append(payload["extra"])
        dropped += payload["dropped"]
    for node_id in sorted(blocks):
        block = blocks[node_id]
        renames: List[Tuple[str, str]] = []
        for source in block["sources"]:
            prefix = session.register_source(source["kind"],
                                             replay_source(source["fill"]))
            renames.append((source["prefix"], prefix))
            merge_at(session.registry, prefix, source["registry"])
        idmap: Dict[int, int] = {}
        for local_id, name in block["tracks"]:
            idmap[local_id] = session.register_track(
                _rename_prefix(name, renames))
        import_timeline(session.timeline, block["spans"],
                        block["instants"], block["open"], idmap)
        for digest in block["machines"]:
            session.register_machine(digest)
    for extra in extras:
        session.registry.merge(extra)
    session.timeline.dropped += dropped


def _rename_prefix(name: str, renames: Sequence[Tuple[str, str]]) -> str:
    """Map a worker-local metric/track name onto its global prefix."""
    for local, swap in renames:
        if name == local:
            return swap
        if name.startswith(local + "."):
            return swap + name[len(local):]
    return name


def run_sharded(config: ClusterConfig, seed: int = 0xC0FFEE,
                distribution: Optional[ServiceDistribution] = None,
                horizon: Optional[int] = None,
                transport: str = "process") -> ClusterRunResult:
    """Run one cluster partitioned over shard engines.

    Byte-identical to :func:`~repro.cluster.run.run_cluster` with
    ``shards=1`` (same streams, same draw order, same summary); the
    mirror cross-check at the end audits the protocol on every run.
    """
    if transport not in TRANSPORTS:
        raise ConfigError(
            f"unknown shard transport {transport!r}; known: "
            f"{', '.join(TRANSPORTS)}")
    horizon = horizon if horizon is not None else config.horizon()
    partitions = shard_node_ids(config.nodes, config.shards)

    streams = RngStreams(seed)
    engine = Engine()
    proxies = [_ProxyNode(engine, node_id, config.design)
               for node_id in range(config.nodes)]
    service = wire_front_end(config, streams, engine, proxies)
    drive_workload(service, config, streams, distribution)

    import repro.obs as obs
    import repro.obs.spans as spans
    session = obs.active()
    collect_obs = session is not None
    span_store = spans.active()
    collect_spans = span_store is not None
    if (transport == "process"
            and multiprocessing.current_process().daemon):
        # daemonic pool workers (the parallel evaluation runner) may
        # not fork children; inline shards produce the same bytes
        transport = "inline"
    if transport == "inline":
        shards: List[Any] = [_InlineShard(config, ids, collect_obs,
                                          collect_spans)
                             for ids in partitions]
    else:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        shards = [_ProcessShard(index, config, ids, ctx,
                                collect_obs, collect_spans)
                  for index, ids in enumerate(partitions)]
    try:
        stats = _run_decoupled(service, shards, config, seed,
                               distribution, horizon)
        finals = [shard.finish() for shard in shards]
    finally:
        for shard in shards:
            shard.stop()
    _fold_final_stats(proxies, finals)
    if collect_obs:
        _merge_worker_obs(session, [shard.obs_payload for shard in shards])
    if collect_spans:
        for shard in shards:
            span_store.merge_fragments(shard.span_payload)
    stats.update({
        "transport": transport,
        "shards": config.shards,
        "spin_hits": sum(s.spin_hits for s in shards),
        "parks": sum(s.parks for s in shards),
    })
    service.pdes = stats
    return ClusterRunResult(config=config, engine=engine, service=service,
                            summary=summarize_run(service))
