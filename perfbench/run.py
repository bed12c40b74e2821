#!/usr/bin/env python3
"""Host-time benchmark of the cluster simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tail_fanout --seed 1 \\
        --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics (``requests_per_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` it runs the same ops
untraced and then under :class:`layertrace.LayerTracer` and prints the
per-layer metrics. Either way every op's output is checked, and the
last stdout line is one JSON object::

    {"correct": ..., "attempted": <ops>, "failed": <ops_failed>,
     "metrics": {name: {"value": ..., "unit": ...}}}

``python3 perfbench/run.py --record-digests > perfbench/digests.json``
re-records the reference digests (only for a change that is *meant* to
alter simulated results). See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SPAN_DIR = ROOT / ".bench_out"

#: Switches that select a non-production path; the benchmark refuses
#: to run with any of them set.
PINNED_ENV = ("REPRO_ENGINE_QUEUE", "REPRO_NO_FASTFORWARD",
              "REPRO_NO_PREDECODE", "REPRO_COHERENCE")

#: Fresh processes timed for ``setup_s`` (the median is reported).
SETUP_PROBES = 7
#: Repetitions of the workload's ops a run makes at the least.
MIN_REPS = 3
#: Share of ``--seconds`` a traced run spends on its untraced pass.
UNTRACED_SHARE = 1 / 3
#: Traced repetitions that count balancer probes; their times are not
#: reported (the probe counter inflates the balancer's self time).
PROBE_REPS = 2
PROBES = "cluster.balancer.probes"

#: Modules whose engine-dispatched callbacks are reported per layer.
CALLBACK_LAYERS = ("kernel.sched", "hw.core", "sim.process",
                   "cluster.fabric", "cluster.service", "mem.watch",
                   "mem.memory", "distributed.rpc", "cluster.run",
                   "backends.machine")

#: Entry-point spans reported with ``.calls`` and ``.self_s``.
ENTRY_SPANS = ("kernel.sched.offer", "distributed.rpc.submit",
               "cluster.balancer.pick", "cluster.fabric.send",
               "cluster.node.offer", "cluster.service.submit",
               "backends.machine.submit")

END_TO_END_UNITS = {"requests_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot produce a result at all."""


# ----------------------------------------------------------------------
# running and checking ops
# ----------------------------------------------------------------------
class Checker:
    """Runs ops, counting attempted and failed ones with the reasons.

    An op fails if it raises, if its summary reports a broken
    conservation law, or if its digest or its exact counts (engine
    events, retired instructions) differ from the reference.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def run(self, op, expect: Tuple = (None, None, None)):
        """Run ``op`` once; returns its OpResult, or None if it failed.

        ``expect`` is a reference ``(digest, events, instructions)``;
        a field that is None is not checked.
        """
        from ops import run_op
        self.attempted += 1
        gc.collect()
        try:
            result = run_op(op)
        except Exception:  # an op that raises is a failed op, not a crash
            return self._fail(op, f"raised:\n{traceback.format_exc()}")
        if not result.summary["conserved"]:
            return self._fail(op, "conservation violated")
        got = (result.digest, result.events, result.instructions)
        for field, want, have in zip(("digest", "events", "instructions"),
                                     expect, got):
            if want is not None and want != have:
                return self._fail(op, f"{field} {have} != expected {want}")
        return result

    def _fail(self, op, problem: str) -> None:
        self.failed += 1
        self.problems.append(f"{op.name} (seed {op.seed}): {problem}")


def verify_recorded(workload: str, checker: Checker) -> None:
    """Run every op at each recorded seed against ``digests.json``.

    This doubles as the warm-up: imports, decode caches and program
    templates are filled here, before anything is timed.
    """
    from workloads import OPS_PER_REP, RECORDED_SEEDS, REQUESTS, ops_for
    recorded = json.loads(DIGESTS.read_text())
    if (recorded.get("requests"), recorded.get("ops_per_rep")) \
            != (REQUESTS, OPS_PER_REP):
        raise BenchError(f"{DIGESTS.name} was recorded for another "
                         "request count or op count")
    table = recorded["digests"].get(workload, {})
    for seed in RECORDED_SEEDS:
        for op in ops_for(workload, seed):
            want = table.get(str(seed), {}).get(op.name)
            if want is None:
                raise BenchError(f"no recorded digest for {workload} "
                                 f"{op.name} at seed {seed}")
            checker.run(op, (want, None, None))


def repeat(ops, seconds: float, min_reps: int, checker: Checker,
           reference: Dict[str, Tuple], before_rep=None,
           after_rep=None) -> List[list]:
    """Run all ops repeatedly for ``seconds`` (at least ``min_reps``
    times), correcting each op's time for host speed. Each op's first
    successful result becomes its entry in ``reference`` (when not
    already there); later results must match it exactly. Returns one
    list of OpResults per repetition in which no op failed."""
    from hostspeed import SpeedClock
    clock = SpeedClock()
    reps = []
    attempts = 0
    deadline = time.perf_counter() + seconds
    while attempts < min_reps or time.perf_counter() < deadline:
        if before_rep is not None:
            before_rep(attempts)
        attempts += 1
        rep = []
        for op in ops:
            result = checker.run(op, reference.get(op.name, (None,) * 3))
            if result is not None:
                result.corrected = clock.correct(result.seconds)
                reference.setdefault(op.name, (result.digest, result.events,
                                               result.instructions))
                rep.append(result)
        if after_rep is not None:
            after_rep(rep)
        if len(rep) == len(ops):
            reps.append(rep)
    if not reps:
        raise BenchError("no repetition completed without failures")
    return reps


def median_seconds(reps: List[list], field: str = "corrected") -> float:
    """Sum over ops of each op's median seconds across ``reps``."""
    return sum(statistics.median(getattr(rep[i], field) for rep in reps)
               for i in range(len(reps[0])))


# ----------------------------------------------------------------------
# end-to-end run
# ----------------------------------------------------------------------
def measure_setup(workload: str, seed: int) -> List[float]:
    """Speed-corrected seconds of SETUP_PROBES cold starts."""
    from hostspeed import SpeedClock
    clock = SpeedClock()
    samples = []
    for _ in range(SETUP_PROBES):
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"),
                 "--workload", workload, "--seed", str(seed)],
                cwd=str(ROOT), capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("set-up probe timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(clock.correct(
            float(proc.stdout.strip().splitlines()[-1])))
    return samples


def end_to_end(workload: str, seed: int, seconds: float, ops,
               checker: Checker) -> Dict[str, float]:
    reps = repeat(ops, seconds, MIN_REPS, checker, {})
    completed = sum(r.completed for r in reps[0])
    setup = measure_setup(workload, seed)
    print(f"engine: {reps[0][0].engine}")
    print(f"repetitions: {len(reps)}")
    for i, op in enumerate(ops):
        first = reps[0][i]
        fixed = sorted(rep[i].corrected for rep in reps)
        print(f"op {op.name}: seed {op.seed}, completed {first.completed}, "
              f"events {first.events}, digest {first.digest[:16]}, "
              f"corrected run_s min/median/max {fixed[0]:.4f} "
              f"{statistics.median(fixed):.4f} {fixed[-1]:.4f}")
    print(f"uncorrected requests_per_s: "
          f"{completed / median_seconds(reps, 'seconds'):.6g}")
    print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setup))
    return {
        "requests_per_s": completed / median_seconds(reps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def per_layer(workload: str, seed: int, seconds: float, ops,
              checker: Checker) -> Tuple[Dict[str, float], List[str]]:
    """Untraced pass, then traced pass of the same ops; returns the
    per-layer metrics and any exact-count mismatches.

    The first PROBE_REPS traced repetitions also count balancer probes
    (and the first records spans); per-layer times come from the later
    ones, which carry no probe counter.
    """
    from layertrace import LayerTracer

    reference: Dict[str, Tuple] = {}
    untraced = repeat(ops, seconds * UNTRACED_SHARE, MIN_REPS, checker,
                      reference)
    tracer = LayerTracer()
    snapshots = []

    def before_rep(index: int) -> None:
        tracer.reset()
        tracer.recording = index == 0
        tracer.count_probes(index < PROBE_REPS)

    def after_rep(rep: list) -> None:
        if len(rep) == len(ops):
            snapshots.append((rep, *tracer.snapshot()))

    with tracer:
        repeat(ops, seconds * (1 - UNTRACED_SHARE), PROBE_REPS + 1, checker,
               reference, before_rep, after_rep)
    tracer.write(str(SPAN_DIR / f"spans-{workload}-seed{seed}"))
    probed, timed = snapshots[:PROBE_REPS], snapshots[PROBE_REPS:]
    if not timed:
        raise BenchError("no traced repetition without probe counting")

    mismatches = []
    for group, skip in ((probed, ()), (snapshots, (PROBES,))):
        counts = [{**calls, **counters} for _, calls, _, counters in group]
        for other in counts[1:]:
            for name in sorted(set(counts[0]) | set(other)):
                first, again = counts[0].get(name, 0), other.get(name, 0)
                if name not in skip and first != again:
                    mismatches.append(f"count {name}: {first} then {again}")
    # per-layer times come from the timed repetition of median speed
    timed.sort(key=lambda s: sum(r.corrected for r in s[0]))
    rep, calls, self_s, counters = timed[len(timed) // 2]
    metrics = layer_metrics(rep, calls, self_s,
                            {**counters, PROBES: probed[0][3].get(PROBES, 0)})
    untraced_s = median_seconds(untraced)
    traced_s = median_seconds([s[0] for s in timed])
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) \
        / untraced_s
    metrics["trace.traced_s"] = sum(r.seconds for r in rep)
    metrics["trace.unattributed_s"] = (metrics["trace.traced_s"]
                                       - sum(self_s.values()))
    print(f"engine: {rep[0].engine}")
    print(f"repetitions: {len(untraced)} untraced, {len(snapshots)} traced;"
          f" {len(tracer.col_name)} spans in "
          f"{SPAN_DIR.name}/spans-{workload}-seed{seed}.bin")
    print("callbacks by module: " + ", ".join(
        f"{name[:-len('.callback')]} {calls[name]}"
        for name in sorted(calls) if name.endswith(".callback")))
    return metrics, mismatches


def layer_metrics(rep, calls, self_s, counters) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    events = sum(r.events for r in rep)
    scheduled = calls.get("sim.engine.schedule", 0)
    engine_s = sum(self_s.get(f"sim.engine.{span}", 0.0)
                   for span in ("run", "schedule", "cancel"))
    m: Dict[str, float] = {
        "sim.engine.events": events,
        "sim.engine.scheduled": scheduled,
        "sim.engine.cancel_ratio": ratio(
            counters.get("sim.engine.cancelled", 0), scheduled),
        "sim.engine.self_s": engine_s,
        "sim.engine.events_per_s": ratio(events, engine_s),
    }
    for layer in CALLBACK_LAYERS:
        m[f"{layer}.callbacks"] = calls.get(f"{layer}.callback", 0)
        m[f"{layer}.callback_s"] = self_s.get(f"{layer}.callback", 0.0)
    for span in ENTRY_SPANS:
        m[f"{span}.calls"] = calls.get(span, 0)
        m[f"{span}.self_s"] = self_s.get(span, 0.0)
    for counter in ("cluster.balancer.pick.excluded", PROBES):
        m[counter] = counters.get(counter, 0)
    m["cluster.service.hedges"] = sum(r.summary["hedges"] for r in rep)
    m["cluster.service.wire_drops"] = sum(r.summary["wire_drops"]
                                          for r in rep)
    m["hw.core.instructions"] = sum(r.instructions for r in rep)
    m["hw.core.instr_per_s"] = ratio(m["hw.core.instructions"],
                                     m["hw.core.callback_s"])
    decodes = calls.get("isa.decode.decode_program", 0)
    lookups = calls.get("isa.decode.lookup", 0)
    m["isa.decode.calls"] = decodes
    m["isa.decode.lookups"] = lookups
    m["isa.decode.decode_s"] = self_s.get("isa.decode.decode_program", 0.0)
    m["isa.decode.hit_ratio"] = 1.0 - ratio(decodes, lookups) \
        if lookups else 0.0
    m["analysis.stats.summary.calls"] = calls.get("analysis.stats.summary", 0)
    m["analysis.stats.summary_s"] = self_s.get("analysis.stats.summary", 0.0)
    return m


def layer_unit(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_pct", "%"),
                         ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


# ----------------------------------------------------------------------
def record_digests() -> dict:
    from ops import run_op
    from workloads import (OPS_PER_REP, RECORDED_SEEDS, REQUESTS, WORKLOADS,
                           ops_for)
    return {
        "requests": REQUESTS,
        "ops_per_rep": OPS_PER_REP,
        "digests": {
            workload: {str(seed): {op.name: run_op(op).digest
                                   for op in ops_for(workload, seed)}
                       for seed in RECORDED_SEEDS}
            for workload in WORKLOADS},
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the cluster simulator.")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="print reference digests as JSON and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    pinned = [name for name in PINNED_ENV if name in os.environ]
    if pinned:
        print(f"perfbench: refusing to run with {', '.join(pinned)} set: "
              "they select a non-production simulator path",
              file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC.name}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro.obs
    import repro.obs.spans
    from workloads import WORKLOADS, ops_for

    if args.record_digests:
        print(json.dumps(record_digests(), indent=1, sort_keys=True))
        return 0
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if repro.obs.active() is not None or repro.obs.spans.active() is not None:
        print("perfbench: a repro.obs session is active", file=sys.stderr)
        return 2

    ops = ops_for(args.workload, args.seed)
    checker = Checker()
    print(f"workload: {args.workload} -- {WORKLOADS[args.workload][0]}")
    print(f"seed: {args.seed}, ops: {', '.join(op.name for op in ops)}")
    try:
        verify_recorded(args.workload, checker)
        if args.trace:
            values, mismatches = per_layer(args.workload, args.seed,
                                           args.seconds, ops, checker)
            units = {name: layer_unit(name) for name in values}
        else:
            values = end_to_end(args.workload, args.seed, args.seconds,
                                ops, checker)
            mismatches = []
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for problem in checker.problems + mismatches:
        print(f"FAILED: {problem}")
    for name, value in values.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name}: {shown} {units[name]}")
    print(f"ops: {checker.attempted}")
    print(f"ops_failed: {checker.failed}")
    print(json.dumps({
        "correct": checker.failed == 0 and not mismatches,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
