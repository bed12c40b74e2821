"""Cycle-attribution profiler.

Buckets every simulated cycle of every core into exactly one of:

- ``issue``        -- a round in which at least one uop issued and some
                      issueable thread did more than burn ``work``;
- ``stall``        -- runnable threads exist but none can issue yet
                      (all waiting out busy-cycle latencies);
- ``mwait``        -- no runnable threads and at least one is parked in
                      MONITOR/MWAIT (the paper's blocked state);
- ``fastforward``  -- work-burn rounds: every issueable thread was
                      mid-``work`` (the trigger condition of the
                      busy-cycle fast-forward), attributed here whether
                      the round was batch-skipped or stepped naively.
                      Attribution from simulation state -- not from
                      whether a batch fired -- keeps the split identical
                      across hosts (fast-forward on/off, single-engine
                      vs PDES shard);
- ``idle``         -- no threads at all (before boot / after all
                      stopped), plus trailing clock advancement when
                      ``engine.run(until=...)`` moves time past the
                      last event.

The invariant -- checked by :meth:`CoreProfile.snapshot` consumers and
the test suite -- is that the buckets sum *exactly* to ``engine.now``
for every core on every run.  The core loop guarantees it by pairing a
:meth:`CoreProfile.pend` before each ``yield`` with a
:meth:`CoreProfile.settle` when it resumes, so wall-to-wall coverage
holds even for waits of unknown length (Signal wakeups); whatever tail
is still pending or unaccounted at snapshot time is charged to the
pending bucket / ``idle`` respectively.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import ConfigError

#: Attribution buckets, in display order.
BUCKETS = ("issue", "stall", "mwait", "fastforward", "idle")


def _fold(buckets: Dict[str, int], pending: Tuple[str, int, Optional[str]],
          now: int) -> None:
    """Add a pending interval closed at ``now`` to ``buckets``."""
    bucket, since, then = pending
    elapsed = now - since
    if then is not None and elapsed > 1:
        buckets[bucket] += 1
        buckets[then] += elapsed - 1
    else:
        buckets[bucket] += elapsed


class CoreProfile:
    """Per-core cycle ledger."""

    __slots__ = ("core_id", "buckets", "_pending")

    def __init__(self, core_id: int):
        self.core_id = core_id
        self.buckets: Dict[str, int] = {bucket: 0 for bucket in BUCKETS}
        self._pending: Optional[Tuple[str, int, Optional[str]]] = None

    def pend(self, bucket: str, since: int,
             then: Optional[str] = None) -> None:
        """Declare that cycles from ``since`` until the next
        :meth:`settle` belong to ``bucket`` (called just before the core
        yields). With ``then``, only the first cycle belongs to
        ``bucket`` and the rest to ``then`` -- an issue round followed
        by the stall the core merged into the same wait."""
        self._pending = (bucket, since, then)

    def settle(self, now: int) -> None:
        """Close the pending interval at ``now`` (called when the core
        resumes)."""
        pending = self._pending
        if pending is not None:
            _fold(self.buckets, pending, now)
            self._pending = None

    def charge(self, bucket: str, cycles: int) -> None:
        """Directly attribute a known-length interval (fast-forward)."""
        self.buckets[bucket] += cycles

    def accounted(self, now: int) -> int:
        """Cycles attributed so far, including any pending interval."""
        total = sum(self.buckets.values())
        if self._pending is not None:
            total += now - self._pending[1]
        return total

    def snapshot(self, now: int) -> Dict[str, int]:
        """Bucket totals summing exactly to ``now``.

        The still-pending interval (a core mid-wait when the run
        stopped) is folded into its declared bucket(s); any remainder --
        a halted core, or clock advancement past the final event --
        is idle time by definition.
        """
        out = dict(self.buckets)
        if self._pending is not None:
            _fold(out, self._pending, now)
        accounted = sum(out.values())
        if accounted > now:
            raise ConfigError(
                f"core {self.core_id} attributed {accounted} cycles"
                f" but engine.now is {now}")
        out["idle"] += now - accounted
        out["total"] = now
        return out


class Profiler:
    """A :class:`CoreProfile` per core, created on first touch."""

    def __init__(self) -> None:
        self.cores: Dict[int, CoreProfile] = {}

    def core(self, core_id: int) -> CoreProfile:
        profile = self.cores.get(core_id)
        if profile is None:
            profile = self.cores[core_id] = CoreProfile(core_id)
        return profile

    def snapshot(self, now: int) -> Dict[str, Dict[str, int]]:
        return {f"core{core_id}": self.cores[core_id].snapshot(now)
                for core_id in sorted(self.cores)}

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Profiler cores={sorted(self.cores)}>"
