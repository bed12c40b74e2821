"""Load-balancing policies for the cluster front-end.

Four classics, in increasing order of information used:

- ``random`` -- uniform choice, no state consulted;
- ``round-robin`` -- cycle through the nodes, no state consulted;
- ``p2c`` -- power-of-two-choices: sample two nodes, send to the less
  loaded (captures most of JSQ's benefit with O(1) state probes);
- ``jsq`` -- join-shortest-queue: global minimum of in-flight requests
  (the omniscient upper bound a real balancer only approximates).

Load is each node's admitted-but-unfinished count
(:meth:`~repro.cluster.node.ClusterNode.in_flight`). By default the
balancer reads it exactly (the omniscient oracle); a real balancer
probes periodically and routes on stale counts, which
``probe_delay_cycles`` models: with a delay of ``D``, every load read
comes from a snapshot of all nodes refreshed at most once per ``D``
cycles. ``probe_delay_cycles=0`` (the default) is the exact oracle and
byte-identical to the pre-staleness behavior.

``pick(exclude=...)`` supports replica selection for hedged requests:
a hedge must land on a node the shard has not already tried.

Exact ``jsq`` keeps a load index instead of scanning every node: a
binary heap of ``(in_flight, node_id, node)`` entries that each indexed
node's admission and finish push onto (:attr:`ClusterNode.load_index`).
A pick with nothing excluded pops the stale heads (entries whose load
is no longer the node's) and returns the first current one -- the same
``(load, node_id)`` minimum the scan finds, in O(log nodes) amortised.
Hedged picks that exclude nodes, and stale-probe ``jsq``, still scan.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import attrgetter, methodcaller
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.sim.engine import Engine

from random import Random

if TYPE_CHECKING:                       # node.py imports push_load
    from repro.cluster.node import ClusterNode

#: The policy names, in the order tables report them.
POLICIES = ("random", "round-robin", "jsq", "p2c")

_in_flight = methodcaller("in_flight")

#: The load index is rebuilt from current loads once it holds more than
#: this many entries per node, so stale entries never pile up.
_INDEX_SLACK = 4


def push_load(node: ClusterNode) -> None:
    """Push ``node``'s current load onto the jsq load index it feeds.

    Every change of a node's ``_in_flight`` calls this while its
    ``load_index`` is not None. The entry layout is known only here and
    in :meth:`LoadBalancer._rebuild_index`.
    """
    heappush(node.load_index, (node._in_flight, node.node_id, node))


class LoadBalancer:
    """Routes shard requests to cluster nodes under one policy."""

    def __init__(self, nodes: Sequence[ClusterNode], policy: str = "p2c",
                 rng: Optional[Random] = None,
                 probe_delay_cycles: int = 0,
                 engine: Optional[Engine] = None):
        if not nodes:
            raise ConfigError("a balancer needs at least one node")
        if policy not in POLICIES:
            raise ConfigError(
                f"unknown policy {policy!r}; known: {list(POLICIES)}")
        if policy in ("random", "p2c") and rng is None:
            raise ConfigError(f"policy {policy!r} needs an rng")
        if probe_delay_cycles < 0:
            raise ConfigError(
                f"probe delay must be >= 0 cycles, got "
                f"{probe_delay_cycles}")
        if probe_delay_cycles > 0 and engine is None:
            raise ConfigError(
                "a stale balancer (probe_delay_cycles > 0) needs the "
                "engine to timestamp its probe snapshots")
        self.nodes = list(nodes)
        # jsq scans in node-id order, so min()'s first minimum is the
        # (load, node_id) tie-break without building a key tuple
        self._by_id = sorted(self.nodes, key=attrgetter("node_id"))
        self.policy = policy
        self.rng = rng
        self.probe_delay_cycles = probe_delay_cycles
        self.engine = engine
        self.probes = 0               # snapshot refreshes taken
        self.picks = 0
        self._rr_next = 0
        self._probe_cache: Dict[int, int] = {}
        self._probe_time: Optional[int] = None
        self._index: Optional[List[Tuple[int, int, ClusterNode]]] = None
        if policy == "jsq" and probe_delay_cycles == 0:
            self._index_loads()

    def _index_loads(self) -> None:
        """Attach the jsq load index to every node (see module doc)."""
        for node in self.nodes:
            if getattr(node, "load_index", None) is not None:
                raise ConfigError(
                    f"{node.name} already feeds another jsq balancer")
        self._index = []
        self._index_limit = _INDEX_SLACK * len(self.nodes)
        for node in self.nodes:
            node.load_index = self._index
        self._rebuild_index()

    def _rebuild_index(self) -> None:
        # in place: the nodes hold this very list
        index = self._index
        index[:] = [(n._in_flight, n.node_id, n) for n in self._by_id]
        heapify(index)

    # ------------------------------------------------------------------
    def _load(self, node: ClusterNode) -> int:
        """The load signal jsq/p2c route on: exact, or a cached probe
        snapshot no older than ``probe_delay_cycles``."""
        if self.probe_delay_cycles == 0:
            return node.in_flight()
        now = self.engine.now
        if (self._probe_time is None
                or now - self._probe_time >= self.probe_delay_cycles):
            self._probe_cache = {n.node_id: n.in_flight()
                                 for n in self.nodes}
            self._probe_time = now
            self.probes += 1
        return self._probe_cache[node.node_id]

    # ------------------------------------------------------------------
    def pick(self, exclude: Tuple[ClusterNode, ...] = ()) -> ClusterNode:
        """Choose a node; ``exclude`` lists replicas already tried.

        If exclusion empties the candidate set (hedging on a cluster
        smaller than the retry budget) the full set is used again.
        """
        self.picks += 1
        index = self._index
        if index is not None:
            if len(index) > self._index_limit:
                self._rebuild_index()
            if not exclude:
                while True:
                    load, _, node = index[0]
                    if load == node._in_flight:
                        return node
                    heappop(index)
        policy = self.policy
        candidates = self._by_id if policy == "jsq" else self.nodes
        if exclude:
            candidates = [n for n in candidates if n not in exclude] \
                or candidates
        if policy == "random":
            return self.rng.choice(candidates)
        if policy == "round-robin":
            return self._pick_rr(candidates)
        if policy == "jsq":
            # stale probes, or an exact pick that excludes nodes
            return min(candidates, key=_in_flight
                       if self.probe_delay_cycles == 0 else self._load)
        # p2c: two distinct probes when possible, less loaded wins,
        # lower id on ties (deterministic)
        if len(candidates) == 1:
            return candidates[0]
        first, second = self.rng.sample(candidates, 2)
        if (self._load(second), second.node_id) \
                < (self._load(first), first.node_id):
            return second
        return first

    def _pick_rr(self, candidates) -> ClusterNode:
        nodes = self.nodes
        if candidates is nodes:
            # nothing excluded: the pointer's node is always a candidate
            node = nodes[self._rr_next]
            self._rr_next = (self._rr_next + 1) % len(nodes)
            return node
        # advance the global pointer until it lands on a candidate, so
        # excluded nodes are skipped without desynchronizing the cycle
        for _ in range(len(nodes)):
            node = nodes[self._rr_next % len(nodes)]
            self._rr_next = (self._rr_next + 1) % len(nodes)
            if node in candidates:
                return node
        return candidates[0]  # unreachable: candidates is non-empty

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<LoadBalancer {self.policy} nodes={len(self.nodes)}"
                f" picks={self.picks}>")
