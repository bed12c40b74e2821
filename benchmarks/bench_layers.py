"""Per-layer micro-benchmarks: one isolated timing per simulator layer.

The first (and so far only) layer is the cluster balancer. For every
policy, at 16, 64 and 256 nodes, it times ``LoadBalancer.pick`` in a
steady state: each pick admits one request on the node it returns and,
once ``2 x nodes`` requests are in flight, the oldest one finishes.
Admissions and finishes move node loads exactly the way
:class:`~repro.cluster.node.ClusterNode` does, through the balancer's
own ``push_load`` when the load index is on, so the figure is the
balancer's whole cost per routed request. Each cell is timed with
nothing excluded (``plain``) and with the previously picked node
excluded (``hedged``). The full run also
times the 256-node ``jsq`` CLI run
(``repro cluster --nodes 256 --fanout 8 --policy jsq --requests 4000``).

Every repeat is one pass over all cells in a fresh process. With
``--baseline SRC`` the passes alternate between the ``src/`` of another
checkout (``before``) and this one (``after``), so both sides see the
same host conditions. Each cell is reported as the median and quartiles
over ``REPEATS`` repeats.

Usage (from the repository root)::

    python benchmarks/bench_layers.py [--quick] [--baseline SRC] [--record]

``--quick`` shrinks every cell to a does-it-run check and skips the CLI
run. ``--record`` stores the result as the ``balancer`` section of
``BENCH_cluster.json``; without it nothing is written.
"""

import argparse
import json
import os
import pathlib
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import deque

try:
    from repro.cluster.balancer import push_load
except ImportError:
    # no repro on the path (the driving process only spawns passes), or
    # a baseline from before the load index: its balancer never sets
    # load_index, so nothing calls push_load there
    push_load = None

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_cluster.json"
NODE_COUNTS = (16, 64, 256)
REPEATS = 7
CLI_256_JSQ = ["cluster", "--nodes", "256", "--fanout", "8",
               "--policy", "jsq", "--requests", "4000"]


class _Node:
    """What the balancer reads of a node, moving its load like
    ``ClusterNode.offer``/``_finished`` do."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.name = f"node{node_id}"
        self._in_flight = 0
        self.load_index = None

    def in_flight(self) -> int:
        return self._in_flight

    def admit(self) -> None:
        self._in_flight += 1
        if self.load_index is not None:
            push_load(self)

    def finish(self) -> None:
        self._in_flight -= 1
        if self.load_index is not None:
            push_load(self)


def _pick_us(policy: str, nodes: int, hedged: bool, picks: int) -> float:
    """Host microseconds per routed request in one steady-state run."""
    from repro.cluster.balancer import LoadBalancer

    cluster = [_Node(node_id) for node_id in range(nodes)]
    balancer = LoadBalancer(cluster, policy, rng=random.Random(7))
    pick = balancer.pick
    admitted = deque()
    depth = 2 * nodes
    last = (cluster[0],)
    start = time.perf_counter()
    for _ in range(picks):
        node = pick(last) if hedged else pick()
        node.admit()
        admitted.append(node)
        if len(admitted) > depth:
            admitted.popleft().finish()
        last = (node,)
    return (time.perf_counter() - start) / picks * 1e6


def _one_pass(picks: int) -> dict:
    """``{"policy/nodes/plain|hedged": us per pick}``, one sample each."""
    from repro.cluster.balancer import POLICIES

    return {f"{policy}/{nodes}/{variant}":
            _pick_us(policy, nodes, variant == "hedged", picks)
            for policy in POLICIES for nodes in NODE_COUNTS
            for variant in ("plain", "hedged")}


def _sample(src: pathlib.Path, picks: int, cli: bool) -> dict:
    """One pass (and one CLI run) in fresh processes importing ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, __file__, "--pass", str(picks)],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    sample = json.loads(out)
    if cli:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "repro", *CLI_256_JSQ],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        sample["cli_256_jsq_s"] = time.perf_counter() - start
    return sample


def _spread(samples) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": round(median, 3), "q1": round(q1, 3),
            "q3": round(q3, 3)}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny cells, no CLI run: checks it runs")
    parser.add_argument("--baseline", metavar="SRC", type=pathlib.Path,
                        help="src/ of a checkout to alternate against")
    parser.add_argument("--record", action="store_true",
                        help="write the balancer section of "
                             "BENCH_cluster.json")
    parser.add_argument("--pass", dest="one_pass", type=int,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one_pass is not None:
        print(json.dumps(_one_pass(args.one_pass)))
        return
    picks = 200 if args.quick else 20_000
    trees = {"after": ROOT / "src"}
    if args.baseline is not None:
        trees = {"before": args.baseline.resolve(), **trees}
    samples = {side: [] for side in trees}
    for _ in range(REPEATS):
        for side, src in trees.items():
            samples[side].append(_sample(src, picks, cli=not args.quick))
    payload = {"unit": "us per pick; cli_256_jsq_s in s",
               "host": f"{os.cpu_count()}-CPU {platform.machine()}, "
                       f"CPython {platform.python_version()}",
               "repeats": REPEATS, "picks_per_sample": picks}
    for side, rows in samples.items():
        payload[side] = {key: _spread([row[key] for row in rows])
                         for key in rows[0]}
    for key in payload["after"]:
        print(f"{key:>24}  " + "  ".join(
            f"{side} {payload[side][key]['median']:9.3f}" for side in trees))
    if args.record:
        data = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else {}
        data["balancer"] = payload
        OUTPUT.write_text(json.dumps(data, indent=2) + "\n")
        print(f"wrote the balancer section of {OUTPUT}")


if __name__ == "__main__":
    main()
