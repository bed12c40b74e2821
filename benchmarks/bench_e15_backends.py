"""E15 bench: backend agreement + the ISA-backend cluster micro-bench.

Run as a script (``PYTHONPATH=src python benchmarks/bench_e15_backends.py``)
to record the E15 wall-clock and an ISA-cluster events/sec number into
``BENCH_cluster.json``; pass ``--quick`` to skip
the full-mode experiment timing.
"""

import sys

from repro.cluster import ClusterConfig, DESIGNS, run_cluster


def test_e15_backend_agreement(run_experiment):
    result = run_experiment("E15", rounds=1)
    assert result.series("worst_p99_deviation") <= 2.0
    ratios = result.series("sw_hw_ratios")
    assert all(r > 1.0 for r in ratios["model"])
    assert all(r > 1.0 for r in ratios["isa"])


def _run(backend, requests=60):
    config = ClusterConfig(nodes=2, design=DESIGNS["hw-threads"],
                           policy="round-robin", fanout=1, load=0.06,
                           mean_service_cycles=4_000, segments=2,
                           rtt_cycles=20_000, requests=requests,
                           backend=backend)
    return run_cluster(config, seed=7)


def test_bench_model_cluster(benchmark):
    result = benchmark(_run, "model")
    assert result.summary["completed"] == 60
    assert result.summary["conserved"]


def test_bench_isa_cluster(benchmark):
    """The fidelity premium: every ISA-node cycle is simulated."""
    result = benchmark(_run, "isa")
    assert result.summary["completed"] == 60
    assert result.summary["conserved"]

def micro_bench() -> dict:
    """The ISA-backend cluster run (every node a simulated machine):
    the path the busy-cycle fast-forward keeps viable."""
    from benchmarks._cluster_bench import timed_cluster_run

    return timed_cluster_run(lambda: _run("isa"))


def main(quick_only: bool) -> None:
    from benchmarks import _cluster_bench as cb

    payload = {
        # pre-rework E15 full-mode wall-clock (heap engine, naive
        # per-cycle ISA stepping on the machine-backend nodes)
        "pre_rework_full_seconds": 8.13,
        "cluster_run": micro_bench(),
        "experiment": (
            [cb.timed_experiment("E15", quick=True)] if quick_only else
            [cb.timed_experiment("E15", quick=True),
             cb.timed_experiment("E15", quick=False)]),
    }
    cb.update_section("e15", payload)


if __name__ == "__main__":
    sys.path.insert(0, str(__import__("pathlib").Path(__file__)
                           .resolve().parent.parent))
    main(quick_only="--quick" in sys.argv[1:])
