"""E14 bench: the cluster experiment + cluster-run micro-benchmarks.

Run as a script (``PYTHONPATH=src python benchmarks/bench_e14_cluster.py``)
to record the E14 wall-clock and a cluster-run events/sec number into
``BENCH_cluster.json``; pass ``--quick`` to skip
the full-mode experiment timing.
"""

import sys

from repro.cluster import ClusterConfig, DESIGNS, run_cluster


def test_e14_cluster(run_experiment):
    result = run_experiment("E14", rounds=1)
    tail = result.series("tail")
    counts = result.series("node_counts")
    ratios = [tail[n]["ratio"] for n in counts]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert all(tail[n]["conserved"] for n in counts)


def _run(design, nodes=8, fanout=4):
    config = ClusterConfig(nodes=nodes, design=DESIGNS[design],
                           policy="random", fanout=fanout, load=0.1,
                           mean_service_cycles=5_000, segments=4,
                           rtt_cycles=20_000, requests=200)
    return run_cluster(config, seed=7)


def test_bench_hw_cluster(benchmark):
    result = benchmark(_run, "hw-threads")
    assert result.summary["completed"] == 200
    assert result.summary["conserved"]


def test_bench_sw_cluster(benchmark):
    result = benchmark(_run, "sw-threads")
    assert result.summary["completed"] == 200
    # the fan-in crowding tax: sw pays more for the same workload
    assert (result.summary["p99"]
            > _run("hw-threads").summary["p99"])


def _stale_run(probe_delay):
    config = ClusterConfig(nodes=8, design=DESIGNS["hw-threads"],
                           policy="jsq", fanout=2, load=0.8,
                           mean_service_cycles=5_000, segments=4,
                           rtt_cycles=20_000, requests=300,
                           probe_delay_cycles=probe_delay)
    return run_cluster(config, seed=7)


def test_staleness_vs_p99():
    """The oracle gap: stale jsq probes cost tail latency.

    One row per probe delay -- the staleness-vs-p99 curve the balancer
    satellite asks for. At high load the exact oracle must beat badly
    stale snapshots; mild staleness may tie, so the assertion compares
    the endpoints only.
    """
    rows = {delay: _stale_run(delay).summary
            for delay in (0, 20_000, 200_000)}
    for delay, summary in rows.items():
        assert summary["conserved"], f"probe_delay={delay}"
        assert summary["completed"] == 300
    assert rows[200_000]["p99"] > rows[0]["p99"]


def micro_bench() -> dict:
    """The representative cluster run the CI smoke job regresses on:
    the sw-threads design (the PS-heaviest path) at moderate scale."""
    from benchmarks._cluster_bench import timed_cluster_run

    return timed_cluster_run(lambda: _run("sw-threads", nodes=8, fanout=4))


SHARD_COUNTS = (1, 2, 4)


def _shard_run(shards, nodes=16, requests=300):
    config = ClusterConfig(nodes=nodes, design=DESIGNS["sw-threads"],
                           policy="round-robin", fanout=8, load=0.1,
                           mean_service_cycles=5_000, segments=4,
                           rtt_cycles=20_000, requests=requests,
                           shards=shards)
    return run_cluster(config, seed=7, transport="process")


def shard_scaling(shard_counts=SHARD_COUNTS) -> dict:
    """Events/sec per shard count on one sweep cell (real worker
    processes; shards=1 is the classic single-engine run). Recorded
    honestly: on a single-CPU container the worker processes add
    synchronization overhead without adding cores, so sharded
    throughput *trails* shards=1 there -- the figures are the baseline
    a multi-core host compares against."""
    from benchmarks._cluster_bench import timed_cluster_run

    return {str(shards): timed_cluster_run(
                lambda shards=shards: _shard_run(shards))
            for shards in shard_counts}


def sweep_256(shard_counts=(1, 4)) -> dict:
    """The acceptance sweep: one 256-node cell, single-engine vs 4
    shard workers, wall-clock seconds (best of 2)."""
    from benchmarks._cluster_bench import timed_cluster_run

    return {str(shards): timed_cluster_run(
                lambda shards=shards: _shard_run(shards, nodes=256,
                                                 requests=300),
                repeats=2)
            for shards in shard_counts}


def main(quick_only: bool) -> None:
    from benchmarks import _cluster_bench as cb

    payload = {
        # the pre-PR timer-wheel/lazy-deadline baseline: E14 full-mode
        # wall-clock on this container before the engine rework
        "pre_rework_full_seconds": 62.07,
        "cluster_run": micro_bench(),
        "experiment": (
            [cb.timed_experiment("E14", quick=True)] if quick_only else
            [cb.timed_experiment("E14", quick=True),
             cb.timed_experiment("E14", quick=False)]),
        # conservative-PDES sharding (process transport);
        # byte-identical output, so this is purely a
        # wall-clock/events-per-sec trajectory
        "shard_scaling": shard_scaling(),
    }
    if not quick_only:
        payload["sweep_256_nodes"] = sweep_256()
    cb.update_section("e14", payload)


if __name__ == "__main__":
    sys.path.insert(0, str(__import__("pathlib").Path(__file__)
                           .resolve().parent.parent))
    main(quick_only="--quick" in sys.argv[1:])
