"""Layer-attributed host-time tracing from outside the simulator.

:class:`LayerTracer` wraps the simulator's public entry points -- the
engine's scheduling calls and ``run``, every scheduled callback, the
scheduler, RPC, balancer, fabric, node, service, machine-backend and
decode entry points -- by patching them on their classes (and on the
``repro.isa.decode`` module) for the duration of a ``with`` block.
Nothing inside ``src/`` changes, and no ``repro.obs`` tracer is
attached: an attached tracer would turn pre-decoding off.

Each wrapped call records a span: name, start, end, parent span and,
where the call carries one, the request id (the attempt id for node,
RPC and backend calls). Spans are kept in memory column-wise and
written out by :meth:`LayerTracer.write`. Alongside, per span name,
the tracer accumulates call counts and *self time* -- the span's
duration minus the time its child spans cover -- so that self times
of all spans partition the traced time they cover.

Scheduled callbacks are attributed to the module that defines the
scheduled function (``repro.kernel.sched`` -> span
``kernel.sched.callback``); a process resume is attributed to the
module that defines the process's generator, since the resume itself
is a generic trampoline into that coroutine.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Scheduling entry points of the engine; all record one span name.
_SCHEDULE_METHODS = ("at", "after", "at_step", "after_step")


def _subclasses(cls: type) -> List[type]:
    """``cls`` and every subclass of it that is currently defined."""
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found


class LayerTracer:
    """Patch the simulator's entry points and account host time to them.

    Use as a context manager; the patches are removed on exit even if
    the simulation raised.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        # span columns (only while ``recording`` is true)
        self.recording = False
        self.col_name = array("H")
        self.col_start = array("d")
        self.col_end = array("d")
        self.col_parent = array("q")
        self.col_rid = array("q")
        # open spans: [name id, span index or -1, start, child seconds]
        self._stack: List[list] = []
        # per-name aggregates since the last reset()
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.counters: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self._callback_ids: Dict[str, int] = {}
        self._in_schedule = False
        self._process_cls: type = type(None)
        self._probe_patch: List[Callable] = []

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def _open(self, nid: int, rid: int) -> list:
        stack = self._stack
        index = -1
        if self.recording:
            index = len(self.col_name)
            self.col_name.append(nid)
            self.col_rid.append(rid)
            self.col_parent.append(stack[-1][1] if stack else -1)
            self.col_start.append(0.0)
            self.col_end.append(0.0)
        entry = [nid, index, 0.0, 0.0]
        stack.append(entry)
        entry[2] = time.perf_counter()
        return entry

    def _close(self, entry: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - entry[2]
        nid = entry[0]
        self.calls[nid] += 1
        self.self_s[nid] += duration - entry[3]
        if stack:
            stack[-1][3] += duration
        index = entry[1]
        if index >= 0:
            self.col_start[index] = entry[2]
            self.col_end[index] = end

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def reset(self) -> None:
        """Zero the per-name aggregates and counters."""
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counters = {}

    def snapshot(self) -> Tuple[Dict[str, int], Dict[str, float],
                                Dict[str, int]]:
        """(calls, self seconds) per span name, and the counters, since
        the last reset."""
        return (dict(zip(self.names, self.calls)),
                dict(zip(self.names, self.self_s)), dict(self.counters))

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _span_wrapper(self, fn: Callable, name: str,
                      rid_arg: Optional[int] = None) -> Callable:
        nid = self.name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            rid = -1
            if rid_arg is not None and len(args) > rid_arg \
                    and isinstance(args[rid_arg], int):
                rid = args[rid_arg]
            entry = open_(nid, rid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(entry)
        return traced

    def _callback_id(self, fn: Callable) -> int:
        owner = getattr(fn, "__self__", None)
        frame = None
        if isinstance(owner, self._process_cls):
            # a process resume runs the process's coroutine: charge the
            # module that defines the generator (a core's issue loop is
            # hw.core's, not sim.process's)
            frame = owner.generator.gi_frame
        module = (frame.f_globals.get("__name__") if frame is not None
                  else getattr(fn, "__module__", None)) or "unknown"
        nid = self._callback_ids.get(module)
        if nid is None:
            layer = module[len("repro."):] \
                if module.startswith("repro.") else module
            nid = self._callback_ids[module] = self.name_id(
                f"{layer}.callback")
        return nid

    def _schedule_wrapper(self, schedule: Callable) -> Callable:
        """Wrap ``Engine.at``-style methods: one span per outer call,
        and the scheduled ``fn`` replaced by a span-recording trampoline
        (inner calls, such as ``after`` delegating to ``at``, pass
        through untouched)."""
        nid = self.name_id("sim.engine.schedule")
        open_, close = self._open, self._close
        callback_id = self._callback_id

        def dispatch(cid, fn, *args):
            entry = open_(cid, -1)
            try:
                fn(*args)
            finally:
                close(entry)

        def traced(engine, when, fn, *args):
            if self._in_schedule:
                return schedule(engine, when, fn, *args)
            entry = open_(nid, -1)
            self._in_schedule = True
            try:
                return schedule(engine, when, dispatch, callback_id(fn),
                                fn, *args)
            finally:
                self._in_schedule = False
                close(entry)
        return traced

    def _cancel_wrapper(self, cancel: Callable) -> Callable:
        nid = self.name_id("sim.engine.cancel")
        open_, close = self._open, self._close

        def traced(call):
            if not call.cancelled:
                self.count("sim.engine.cancelled")
            entry = open_(nid, -1)
            try:
                return cancel(call)
            finally:
                close(entry)
        return traced

    def _pick_wrapper(self, pick: Callable) -> Callable:
        traced_pick = self._span_wrapper(pick, "cluster.balancer.pick")

        def traced(balancer, *args, **kwargs):
            exclude = kwargs.get("exclude", args[0] if args else ())
            if exclude:
                self.count("cluster.balancer.pick.excluded")
            return traced_pick(balancer, *args, **kwargs)
        return traced

    def count_probes(self, enabled: bool) -> None:
        """Count node load reads made inside ``LoadBalancer.pick``.

        A wrapper on ``ClusterNode.in_flight`` costs about as much as
        the read itself and would inflate the balancer's self time, so
        it is switched on only for repetitions whose times are not
        reported (see ``run.py``).
        """
        from repro.cluster import ClusterNode
        if enabled == bool(self._probe_patch):
            return
        if not enabled:
            ClusterNode.in_flight = self._probe_patch.pop()
            return
        in_flight = ClusterNode.__dict__["in_flight"]
        pick_id = self.name_id("cluster.balancer.pick")
        stack = self._stack

        def counted(node):
            if stack and stack[-1][0] == pick_id:
                self.count("cluster.balancer.probes")
            return in_flight(node)
        self._probe_patch.append(in_flight)
        ClusterNode.in_flight = counted

    # ------------------------------------------------------------------
    # install / remove
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_classes(self, base: type, attr: str,
                       make: Callable[[Callable], Callable]) -> None:
        for cls in _subclasses(base):
            fn = cls.__dict__.get(attr)
            if fn is not None and not getattr(fn, "__isabstractmethod__",
                                              False):
                self._patch(cls, attr, make(fn))

    def install(self) -> None:
        import repro.isa.decode as decode
        from repro.analysis.stats import LatencyRecorder
        from repro.backends.machine import MachineBackend
        from repro.cluster import (ClusterNode, ClusterService, Fabric,
                                   LoadBalancer)
        from repro.distributed.rpc import RpcServerModel
        from repro.isa.program import Program
        from repro.kernel.sched import QueueingServer
        from repro.sim.engine import Engine, ScheduledCall
        from repro.sim.process import Process

        self._process_cls = Process
        span = self._span_wrapper
        for attr in _SCHEDULE_METHODS:
            self._patch_classes(Engine, attr, self._schedule_wrapper)
        self._patch_classes(Engine, "run",
                            lambda fn: span(fn, "sim.engine.run"))
        self._patch(ScheduledCall, "cancel",
                    self._cancel_wrapper(ScheduledCall.cancel))
        self._patch_classes(QueueingServer, "offer",
                            lambda fn: span(fn, "kernel.sched.offer"))
        self._patch(RpcServerModel, "submit",
                    span(RpcServerModel.submit, "distributed.rpc.submit", 1))
        self._patch(LoadBalancer, "pick",
                    self._pick_wrapper(LoadBalancer.pick))
        self._patch(Fabric, "send", span(Fabric.send, "cluster.fabric.send"))
        self._patch(ClusterNode, "offer",
                    span(ClusterNode.offer, "cluster.node.offer", 1))
        self._patch(ClusterService, "submit",
                    span(ClusterService.submit, "cluster.service.submit", 1))
        self._patch(MachineBackend, "submit",
                    span(MachineBackend.submit, "backends.machine.submit", 1))
        self._patch(decode, "decode_program",
                    span(decode.decode_program, "isa.decode.decode_program"))
        self._patch(Program, "decoded",
                    span(Program.decoded, "isa.decode.lookup"))
        self._patch(LatencyRecorder, "summary",
                    span(LatencyRecorder.summary, "analysis.stats.summary"))

    def remove(self) -> None:
        self.count_probes(False)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.remove()

    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write the recorded spans: ``path + '.json'`` holds the name
        table and column layout, ``path + '.bin'`` the raw columns."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        columns = (("name", self.col_name), ("start", self.col_start),
                   ("end", self.col_end), ("parent", self.col_parent),
                   ("request_id", self.col_rid))
        with open(path + ".bin", "wb") as out:
            for _, column in columns:
                column.tofile(out)
        index = {
            "spans": len(self.col_name),
            "names": self.names,
            "columns": [{"name": name, "typecode": column.typecode,
                         "itemsize": column.itemsize}
                        for name, column in columns],
            "clock": "time.perf_counter seconds",
            "parent": "span index, -1 for a root",
            "request_id": "-1 when the call carries none",
        }
        with open(path + ".json", "w") as out:
            json.dump(index, out, indent=1)
