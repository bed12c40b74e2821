"""Tests for repro.cluster.pdes: conservative parallel-in-time sharding.

The contract under test is strong: a sharded run must be *byte
identical* to the single-engine run -- same summary, same latency
quantiles, same obs snapshot -- because the client runs the stock
front-end and fabric and so makes exactly the RNG draws the shared
engine would have made, while the workers only replay their nodes'
work. The conservative protocol (lookahead = min client->node link
latency) guarantees no shard ever has to deliver a message into its
committed past; the causality tests pin that guarantee down.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.cluster import (
    CausalityError,
    ClusterConfig,
    node_link_spec,
    request_lookahead,
    run_cluster,
    scaled,
)
from repro.cluster import pdes
from repro.cluster.fabric import LinkSpec
from repro.cluster.pdes import ShardWorker, shard_node_ids
from repro.distributed.rpc import SW_THREADS
from repro.errors import ConfigError, SimulationError


def _config(**overrides) -> ClusterConfig:
    """Small but non-trivial: multiple nodes per shard, fanout > 1."""
    defaults = dict(nodes=8, design=SW_THREADS, fanout=4, requests=40,
                    mean_service_cycles=8_000, rtt_cycles=4_000,
                    link=LinkSpec(base_cycles=2_000, jitter_mean_cycles=250.0))
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def _fingerprint(result) -> str:
    """Everything a run reports, as one canonical string."""
    stats = result.service.recorder.summary()
    return json.dumps({"summary": result.summary,
                       "p50": stats.p50, "p95": stats.p95,
                       "p99": stats.p99, "mean": stats.mean},
                      sort_keys=True)


# ----------------------------------------------------------------------
class TestShardNodeIds:
    def test_striped_partition(self):
        assert shard_node_ids(8, 3) == [[0, 3, 6], [1, 4, 7], [2, 5]]

    def test_one_shard_is_identity(self):
        assert shard_node_ids(4, 1) == [[0, 1, 2, 3]]

    def test_bounds_rejected(self):
        with pytest.raises(ConfigError):
            shard_node_ids(4, 5)
        with pytest.raises(ConfigError):
            shard_node_ids(4, 0)

    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigError):
            run_cluster(_config(shards=2), transport="carrier-pigeon")


class TestLabelsIgnoreShards:
    """Sharding must not perturb a single RNG stream: both label
    variants -- the stream prefix and the human label -- are the same
    for shards=1 and shards=N, so every named stream draws the same
    sequence on either side."""

    def test_workload_label_unchanged(self):
        base = _config()
        for shards in (2, 4, 8):
            assert (scaled(base, shards=shards).workload_label()
                    == base.workload_label())

    def test_label_unchanged(self):
        base = _config()
        assert scaled(base, shards=4).label() == base.label()


# ----------------------------------------------------------------------
class TestByteIdentity:
    """The headline acceptance: shards=N reproduces shards=1 exactly."""

    @pytest.mark.parametrize("policy,overrides", [
        # hedging cannot shard (TestShardableConfigs)
        pytest.param("round-robin", {},   # deterministic routing
                     id="round-robin-None"),
        pytest.param("random", {}, id="random-None"),  # stochastic
        # the two verdicts a worker sends home: lost responses (drawn
        # on the node->client links) and admission rejections
        pytest.param("random",
                     dict(link=LinkSpec(base_cycles=2_000,
                                        jitter_mean_cycles=250.0,
                                        drop_prob=0.05)),
                     id="random-lossy"),
        pytest.param("round-robin", dict(queue_limit=2, load=0.9),
                     id="round-robin-admission-limited"),
    ])
    def test_matches_single_engine(self, policy, overrides):
        config = _config(policy=policy, **overrides)
        single = run_cluster(config, seed=11)
        sharded = run_cluster(scaled(config, shards=4), seed=11,
                              transport="inline")
        assert _fingerprint(sharded) == _fingerprint(single)
        if "link" in overrides:
            assert single.service.response_wire_drops > 0
        if "queue_limit" in overrides:
            assert single.service.rejected > 0
        assert sharded.service.pdes["shards"] == 4
        assert sharded.service.pdes["mode"] == "decoupled"

    def test_partition_count_is_invisible(self):
        """2, 3, and 4 shards cut the node set differently yet report
        the same run: the partition is pure bookkeeping."""
        config = _config(policy="random")
        prints = {shards: _fingerprint(
                      run_cluster(scaled(config, shards=shards), seed=5,
                                  transport="inline"))
                  for shards in (1, 2, 3, 4)}
        assert len(set(prints.values())) == 1

    def test_process_transport_matches(self):
        """Real worker processes (the default transport) agree with
        both the inline debug mode and the single engine."""
        config = _config(policy="round-robin")
        single = run_cluster(config, seed=9)
        procs = run_cluster(scaled(config, shards=2), seed=9,
                            transport="process")
        assert _fingerprint(procs) == _fingerprint(single)
        assert procs.service.pdes["transport"] == "process"

    def test_cross_rack_topology_matches(self):
        """Lookahead honors per-link overrides: the min over the
        client->node specs, not the default link."""
        config = _config(racks=2,
                         cross_rack_link=LinkSpec(base_cycles=9_000,
                                                  jitter_mean_cycles=500.0))
        assert request_lookahead(config) == 2_000
        single = run_cluster(config, seed=21)
        sharded = run_cluster(scaled(config, shards=4), seed=21,
                              transport="inline")
        assert _fingerprint(sharded) == _fingerprint(single)


# ----------------------------------------------------------------------
class TestShardableConfigs:
    """Sharding pipelines the client's outbound traffic ahead of the
    nodes, which needs routing that reads no node state. Load-aware
    policies and hedging are rejected when the config is built, before
    any worker process starts."""

    @pytest.mark.parametrize("overrides", [
        dict(policy="jsq"),
        dict(policy="p2c"),
        dict(policy="round-robin", hedge_after=30_000),
    ], ids=["jsq", "p2c", "hedged"])
    def test_state_dependent_routing_rejected(self, overrides):
        with pytest.raises(ConfigError, match="shards=1"):
            _config(shards=2, **overrides)
        assert _config(shards=1, **overrides).shards == 1

    def test_cli_rejects_with_exit_code_2(self, capsys):
        from repro.cli import main
        assert main(["cluster", "--policy", "jsq", "--shards", "2"]) == 2
        err = capsys.readouterr().err
        assert "depends on node state" in err
        assert "shards=1" in err
        assert "Traceback" not in err


class TestDeadWorker:
    @pytest.mark.parametrize("when", ["computing", "after_reply"])
    def test_sigkilled_worker_raises_simulation_error(self, monkeypatch,
                                                      when):
        """SIGKILL one process-transport worker mid-run: the coordinator
        raises a typed error naming the shard and its exit code, fast,
        and reaps every worker. Killed while computing a window, the
        coordinator finds out on its next read; killed after its reply
        is buffered, on its next write."""
        killed = []

        def kill(shard):
            os.kill(shard.proc.pid, signal.SIGKILL)
            shard.proc.join(10)
            killed.append(time.monotonic())

        post_advance = pdes._ProcessShard.post_advance
        recv_batch = pdes._ProcessShard.recv_batch

        def advance_then_kill(shard, until):
            post_advance(shard, until)
            if not killed and shard.index == 1:
                kill(shard)

        def kill_then_recv(shard):
            if not killed and shard.index == 1:
                assert shard.conn.poll(10)  # the reply is buffered
                kill(shard)
            return recv_batch(shard)

        if when == "computing":
            monkeypatch.setattr(pdes._ProcessShard, "post_advance",
                                advance_then_kill)
        else:
            monkeypatch.setattr(pdes._ProcessShard, "recv_batch",
                                kill_then_recv)
        config = ClusterConfig(nodes=32, fanout=8, requests=20_000,
                               policy="random", shards=2)
        with pytest.raises(SimulationError,
                           match=r"shard 1 worker .* exit code -9"):
            run_cluster(config, transport="process")
        assert killed and time.monotonic() - killed[0] < 10.0
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
class TestCausality:
    """The conservative protocol's safety net."""

    def _worker(self) -> ShardWorker:
        return ShardWorker(_config(), node_ids=[0, 4])

    def test_inject_into_committed_past_raises(self):
        worker = self._worker()
        worker.advance(10_000)
        with pytest.raises(CausalityError):
            worker.inject([(9_000, 10_000, 1, 0, 5_000.0)])

    def test_advance_backwards_raises(self):
        worker = self._worker()
        worker.advance(10_000)
        with pytest.raises(CausalityError):
            worker.advance(9_999)

    def test_future_delivery_accepted(self):
        worker = self._worker()
        worker.advance(10_000)
        worker.inject([(9_000, 10_001, 1, 0, 5_000.0)])
        rejects, finishes, _events = worker.advance(200_000)
        assert rejects == []
        assert len(finishes) == 1

    @given(nodes=st.integers(min_value=2, max_value=8),
           shards=st.integers(min_value=2, max_value=4),
           base=st.integers(min_value=1_000, max_value=20_000),
           seed=st.integers(min_value=0, max_value=2**16),
           policy=st.sampled_from(["round-robin", "random"]))
    @settings(max_examples=12, deadline=None)
    def test_no_message_beats_the_lookahead(self, nodes, shards, base,
                                            seed, policy):
        """Property: across random topologies, every cross-shard
        request's slack (deliver - send) is at least the advertised
        lookahead -- no message is ever delivered earlier than its
        send time plus the minimum link latency, so no shard window
        can miss one."""
        if shards > nodes:
            shards = nodes
        config = _config(nodes=nodes, fanout=min(2, nodes),
                         requests=12, policy=policy, shards=shards,
                         link=LinkSpec(base_cycles=base,
                                       jitter_mean_cycles=base / 4))
        result = run_cluster(config, seed=seed, transport="inline")
        pdes = result.service.pdes
        assert pdes["lookahead"] == request_lookahead(config)
        assert pdes["lookahead"] == base
        if pdes["min_slack"] is not None:
            assert pdes["min_slack"] >= pdes["lookahead"]

    def test_min_slack_reported(self):
        """The audit trail actually observed traffic (not vacuous)."""
        result = run_cluster(_config(shards=2), seed=2,
                             transport="inline")
        assert result.service.pdes["min_slack"] is not None
        assert result.service.pdes["windows"] >= 1


class TestProxyProtocol:
    """The client-side proxy takes its verdicts from the worker and
    fails loudly when the two sides disagree."""

    def _proxy(self):
        from repro.sim.engine import Engine
        return pdes._ProxyNode(Engine(), 3, SW_THREADS)

    def test_worker_verdicts_drive_offer(self):
        proxy = self._proxy()
        done = []
        proxy.rejected_ids.add(7)
        assert not proxy.offer(7, [1.0], 0, on_done=lambda: done.append(7))
        assert proxy.offer(8, [1.0], 0, on_done=lambda: done.append(8))
        assert (proxy.admitted, proxy.rejected, proxy.in_flight()) \
            == (1, 1, 1)
        proxy.remote_finished(8)
        assert done == [8] and proxy.conserved()

    def test_unknown_finish_is_a_protocol_error(self):
        proxy = self._proxy()
        with pytest.raises(SimulationError, match="never launched"):
            proxy.remote_finished(42)

    def test_mirror_divergence_is_caught(self):
        proxy = self._proxy()
        assert proxy.offer(1, [1.0], 0)
        with pytest.raises(SimulationError, match="mirror diverged"):
            pdes._fold_final_stats([proxy], [{3: (2, 0, 0, 2, 10)}])
        pdes._fold_final_stats([proxy], [{3: (1, 0, 0, 1, 10)}])
        assert proxy.busy_cycles() == 10


# ----------------------------------------------------------------------
def _flatten(value, path=""):
    out = {}
    if isinstance(value, dict):
        for key in value:
            out.update(_flatten(value[key], f"{path}.{key}" if path
                                else str(key)))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            out.update(_flatten(item, f"{path}[{index}]"))
    else:
        out[path] = value
    return out


class TestObsMerge:
    """Sharded observability: worker-side sessions ship home and replay
    into the client session so the merged snapshot equals the
    single-engine one (see repro.obs.merge)."""

    def _snapshot(self, config, transport="inline"):
        with obs.session("pdes") as sess:
            run_cluster(config, seed=13, transport=transport)
        return sess.snapshot()

    def test_model_snapshot_byte_identical(self):
        config = _config(policy="random", requests=24)
        single = self._snapshot(config)
        sharded = self._snapshot(scaled(config, shards=4))
        assert single == sharded

    def test_process_transport_snapshot_matches_inline(self):
        config = _config(requests=24, shards=2)
        assert (self._snapshot(config, "process")
                == self._snapshot(config, "inline"))

    def test_isa_snapshot_byte_identical(self):
        """ISA machines run on the hosting engine, yet the snapshot
        must not betray which engine hosted them: ``engine.*`` counters
        are harvested only from engine-owning machines, and the
        profiler's issue/fastforward split is attributed from
        simulation state (all-issueable-threads-mid-work), never from
        whether a batch actually fired. With both host artifacts closed
        at the source, sharded ISA snapshots are fully byte-identical."""
        config = _config(nodes=4, fanout=2, requests=8, backend="isa",
                         mean_service_cycles=4_000)
        single = self._snapshot(config)
        sharded = self._snapshot(scaled(config, shards=2))
        assert single == sharded

    def test_isa_snapshot_has_no_host_engine_counters(self):
        """The closed carve-out, pinned from the other side: a cluster
        ISA machine lives on a shared engine it does not own, so the
        host's event totals must not appear in the snapshot at all."""
        snapshot = self._snapshot(
            _config(nodes=2, fanout=1, requests=4, backend="isa",
                    mean_service_cycles=4_000))
        assert not any(name.startswith("engine.")
                       for name in snapshot["metrics"]["counters"])


class TestObsMergeEdgeCases:
    """Degenerate merge inputs: nodes that serve nothing, whole shards
    that serve nothing, a one-node cluster, and sessions whose only
    content is a timeline (no registered metric sources)."""

    def _snapshot(self, config, transport="inline"):
        with obs.session("pdes") as sess:
            run_cluster(config, seed=13, transport=transport)
        return sess.snapshot()

    def test_zero_request_node_matches(self):
        # two round-robin requests over four nodes at fanout 1: nodes
        # 2 and 3 admit nothing, yet still ship their (empty) server
        # metrics home
        config = _config(nodes=4, fanout=1, requests=2)
        assert (self._snapshot(scaled(config, shards=2))
                == self._snapshot(config))

    def test_empty_shard_matches(self):
        # a single request lands on one node; every other shard's
        # session crosses the pipe with zero admitted requests
        config = _config(nodes=4, fanout=1, requests=1)
        assert (self._snapshot(scaled(config, shards=4))
                == self._snapshot(config))

    def test_single_node_cluster_matches(self):
        config = _config(nodes=1, fanout=1, requests=10)
        assert (self._snapshot(scaled(config, shards=1))
                == self._snapshot(config))

    def test_timeline_only_session_snapshots(self):
        # no machines, no metric sources: only a component track
        from repro.obs.timeline import ThreadState
        with obs.session("timeline-only") as sess:
            track = sess.register_track("queue0")
            sess.timeline.transition(track, 0, ThreadState.RUNNING, 0)
            sess.timeline.transition(track, 0, ThreadState.MWAIT, 50)
            sess.timeline.finish(80)
        snapshot = sess.snapshot()
        assert snapshot["machines"] == 0
        assert snapshot["metrics"]["counters"] == {}
        assert snapshot["timeline"]["spans"] == 2
        assert snapshot["timeline"]["open"] == 0

    def test_import_timeline_remaps_and_roundtrips(self):
        # the merge primitive itself: shipped rows replay under new
        # track ids, open spans stay open
        from repro.obs.merge import import_timeline
        from repro.obs.timeline import ThreadState, Timeline
        source = Timeline()
        source.transition(0, 1, ThreadState.RUNNING, 10)
        source.transition(0, 1, ThreadState.MWAIT, 30)
        source.instant(0, 1, "wakeup", 30)
        rows = [(s.core_id, s.ptid, s.state, s.begin, s.end)
                for s in source.spans]
        instants = [(i.core_id, i.ptid, i.name, i.at)
                    for i in source.instants]
        target = Timeline()
        import_timeline(target, rows, instants, source.open_spans(),
                        idmap={0: 7})
        assert [(s.core_id, s.ptid, s.begin, s.end)
                for s in target.spans] == [(7, 1, 10, 30)]
        assert target.instants[0].core_id == 7
        assert target.open_spans() == [(7, 1, ThreadState.MWAIT, 30)]

    def test_import_empty_timeline_is_a_noop(self):
        from repro.obs.merge import import_timeline
        from repro.obs.timeline import Timeline
        target = Timeline()
        import_timeline(target, [], [], [], idmap={})
        assert len(target.spans) == 0
        assert len(target.instants) == 0
        assert target.open_spans() == []


# ----------------------------------------------------------------------
class TestLookahead:
    def test_uniform_topology(self):
        config = _config(link=LinkSpec(base_cycles=3_333))
        assert request_lookahead(config) == 3_333
        assert node_link_spec(config, 3) is config.link

    def test_cross_rack_spec_applies_off_rack_zero(self):
        cross = LinkSpec(base_cycles=50_000)
        config = _config(racks=2, cross_rack_link=cross)
        assert node_link_spec(config, 0) is config.link
        assert node_link_spec(config, 1) is cross
