"""The benchmark's workloads: fixed cluster shapes, seeded inputs.

Each workload is a list of *ops*; one op is one complete simulation
run of one :class:`~repro.cluster.ClusterConfig` at one seed, and every
design of a workload runs at several seeds derived from ``--seed``
(:data:`OPS_PER_REP` ops in all). The simulator receives nothing but the config and the
seed, so the same ``--seed`` always yields the same simulated inputs
and outputs.

Why each shape was chosen (self-time shares are cProfile shares on
the unmodified simulator; see ``perfbench/README.md``):

- ``tail_fanout`` -- E14's tail-at-scale cell, the shape behind most
  of ``evaluate``'s wall clock: engine, processor-sharing scheduler
  and RPC model dominate; the balancer barely registers (every pick
  has an empty ``exclude``).
- ``lb_hedged`` -- join-shortest-queue over 64 nodes with hedged
  requests on lossy links: hedge timers get cancelled and hedged picks
  carry a non-empty ``exclude``, so the balancer's O(nodes) scan shows.
- ``isa_cluster`` -- E15's ISA-backend cluster: the HWCore issue loop,
  process resumes and the watch bus do the work, while the behavioural
  scheduler and RPC model do none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.cluster import DESIGNS, ClusterConfig, LinkSpec

#: Simulated requests per op. One op takes 0.1-0.3 host seconds on a
#: 2-CPU x86 container: short enough that the host-speed correction
#: tracks the host around each op, long enough to reach steady state.
REQUESTS = 250

#: Ops per repetition: every design of a workload runs at as many seeds
#: derived from ``--seed`` as make this many ops, so one repetition
#: simulates ``REQUESTS * OPS_PER_REP`` requests on every workload and
#: its host cost varies little from one seed to the next.
OPS_PER_REP = 8

#: Requests per op in the set-up probe's first-use run: enough to bind
#: programs and fill the decode caches, too few to be a measurement.
FIRST_USE_REQUESTS = 4

#: Seeds whose per-op digests are recorded in ``digests.json``: the
#: simulator's default seed and one held-out seed that was never used
#: while the benchmark was tuned.
DEFAULT_SEED = 0xC0FFEE
HELD_OUT_SEED = 90210
RECORDED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

# E14's tail-at-scale constants
_E14 = dict(load=0.06, mean_service_cycles=5_000, segments=4,
            rtt_cycles=20_000, threads_per_peer=4)
# E15's backend-agreement constants
_E15 = dict(load=0.06, mean_service_cycles=4_000, segments=2,
            rtt_cycles=20_000, threads_per_peer=4)


@dataclass(frozen=True)
class Op:
    """One simulation run of a workload: a named config and its seed."""

    name: str
    config: ClusterConfig
    seed: int


def subseed(seed: int, index: int) -> int:
    """The seed of sub-seed ``index``; index 0 is ``seed`` itself."""
    return seed + index * 1_000_003


def _tail_fanout(requests: int) -> List[Tuple[str, ClusterConfig]]:
    return [(design, ClusterConfig(
        nodes=32, design=DESIGNS[design], policy="random", fanout=8,
        requests=requests, **_E14))
        for design in ("hw-threads", "sw-threads")]


def _lb_hedged(requests: int) -> List[Tuple[str, ClusterConfig]]:
    return [("hw-threads", ClusterConfig(
        nodes=64, design=DESIGNS["hw-threads"], policy="jsq", fanout=8,
        link=LinkSpec(drop_prob=0.01), hedge_after=8 * _E14["rtt_cycles"],
        requests=requests, **_E14))]


def _isa_cluster(requests: int) -> List[Tuple[str, ClusterConfig]]:
    return [(design, ClusterConfig(
        nodes=8, design=DESIGNS[design], policy="round-robin", fanout=2,
        backend="isa", requests=requests, **_E15))
        for design in ("hw-threads", "sw-threads")]


#: name -> (why it was chosen, factory of (design, config) pairs)
WORKLOADS: Dict[str, Tuple[str, Callable[[int], list]]] = {
    "tail_fanout": (
        "E14 tail-at-scale cell: engine, PS scheduler and RPC model "
        "dominate; balancer picks never exclude", _tail_fanout),
    "lb_hedged": (
        "jsq over 64 nodes with hedging on lossy links: cancelled hedge "
        "timers and excluding O(nodes) balancer picks", _lb_hedged),
    "isa_cluster": (
        "E15 ISA-backend cluster: HWCore issue loop, process resumes and "
        "watch bus; no PS scheduler or RPC model work", _isa_cluster),
}


def ops_for(workload: str, seed: int, requests: int = REQUESTS,
            ops: int = OPS_PER_REP) -> List[Op]:
    """The ops of one repetition of ``workload`` at ``seed``: every
    design at each of its sub-seeds, named ``<design>/<sub-seed>``."""
    designs = WORKLOADS[workload][1](requests)
    return [Op(f"{design}/{index}", config, subseed(seed, index))
            for index in range(max(1, ops // len(designs)))
            for design, config in designs]
