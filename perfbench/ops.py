"""Running one op through the public cluster entry points.

An op is built with :func:`repro.cluster.build_cluster` and
:func:`repro.cluster.drive_workload`, run with ``Engine.run`` to the
config's horizon, and summarized with :func:`repro.cluster.summarize_run`.
Only ``Engine.run`` plus ``summarize_run`` is timed: that is the host
time of the simulation itself. Building happens before the first
simulated event and is measured as set-up instead (``setup_probe.py``).
"""

from __future__ import annotations

import hashlib
import json
import struct
import time
from dataclasses import dataclass
from typing import Any, Dict

from repro.cluster import build_cluster, drive_workload, summarize_run
from repro.sim.rng import RngStreams

from workloads import Op


@dataclass
class OpResult:
    """What one op produced, and what it cost on the host."""

    summary: Dict[str, Any]
    digest: str
    completed: int
    seconds: float          # host seconds of Engine.run + summarize_run
    events: int             # engine events dispatched
    instructions: int       # guest instructions retired (isa backend)
    engine: str             # class of the engine that actually ran
    corrected: float = 0.0  # ``seconds`` at reference host speed


def build(op: Op):
    """Build and drive one op; returns the cluster service, not yet run."""
    streams = RngStreams(op.seed)
    service = build_cluster(op.config, streams)
    drive_workload(service, op.config, streams)
    return service


def digest(summary: Dict[str, Any], samples) -> str:
    """SHA-256 over the summary and the exact latency samples."""
    h = hashlib.sha256(json.dumps(summary, sort_keys=True).encode())
    h.update(struct.pack(f"<{len(samples)}d", *samples))
    return h.hexdigest()


def retired_instructions(service) -> int:
    """Guest instructions retired on every node machine (0 when the
    nodes run the behavioural model and have no machine)."""
    total = 0
    for node in service.nodes:
        machine = getattr(node.server, "machine", None)
        if machine is not None:
            for core_id in range(machine.config.cores):
                total += machine.core(core_id).instructions_retired
    return total


def run_op(op: Op) -> OpResult:
    """Build, run and summarize one op, timing the run."""
    service = build(op)
    engine = service.engine
    horizon = op.config.horizon()
    start = time.perf_counter()
    engine.run(until=horizon)
    summary = summarize_run(service)
    seconds = time.perf_counter() - start
    return OpResult(
        summary=summary,
        digest=digest(summary, service.recorder.samples),
        completed=summary["completed"],
        seconds=seconds,
        events=engine.events_processed,
        instructions=retired_instructions(service),
        engine=type(engine).__name__)
