"""Tests for the cycle-attribution profiler.

The load-bearing invariant: every core's buckets sum exactly to
``engine.now`` -- on unit-level ledgers and on every registered
experiment end to end.
"""

import pytest

from repro.errors import ConfigError
from repro.obs.profile import BUCKETS, CoreProfile, Profiler


class TestCoreProfile:
    def test_pend_settle_attributes_interval(self):
        profile = CoreProfile(0)
        profile.pend("stall", 10)
        profile.settle(25)
        assert profile.buckets["stall"] == 15

    def test_split_pend_charges_first_cycle_then_remainder(self):
        # an issue round whose merged stall shares the same wait
        profile = CoreProfile(0)
        profile.pend("issue", 10, "stall")
        assert profile.snapshot(10)["issue"] == 0
        assert profile.snapshot(11)["issue"] == 1
        assert profile.snapshot(11)["stall"] == 0
        profile.settle(15)
        assert profile.buckets["issue"] == 1
        assert profile.buckets["stall"] == 4

    def test_settle_without_pend_is_noop(self):
        profile = CoreProfile(0)
        profile.settle(100)
        assert sum(profile.buckets.values()) == 0

    def test_charge_direct(self):
        profile = CoreProfile(0)
        profile.charge("fastforward", 500)
        assert profile.buckets["fastforward"] == 500

    def test_snapshot_folds_pending_and_fills_idle(self):
        profile = CoreProfile(0)
        profile.pend("issue", 0)
        profile.settle(30)
        profile.pend("mwait", 30)  # still waiting when the run stops
        snap = profile.snapshot(100)
        assert snap["issue"] == 30
        assert snap["mwait"] == 70
        assert snap["idle"] == 0
        assert snap["total"] == 100
        assert sum(snap[b] for b in BUCKETS) == 100

    def test_snapshot_remainder_is_idle(self):
        profile = CoreProfile(0)
        profile.charge("issue", 40)
        snap = profile.snapshot(100)
        assert snap["idle"] == 60
        assert sum(snap[b] for b in BUCKETS) == snap["total"] == 100

    def test_over_attribution_raises(self):
        profile = CoreProfile(3)
        profile.charge("issue", 101)
        with pytest.raises(ConfigError):
            profile.snapshot(100)

    def test_accounted_includes_pending(self):
        profile = CoreProfile(0)
        profile.charge("issue", 10)
        profile.pend("stall", 10)
        assert profile.accounted(35) == 35


class TestProfiler:
    def test_cores_created_on_touch(self):
        profiler = Profiler()
        profiler.core(2).charge("issue", 5)
        profiler.core(0).charge("idle", 5)
        snap = profiler.snapshot(10)
        assert list(snap) == ["core0", "core2"]
        assert snap["core2"]["issue"] == 5


class TestExperimentsSumExactly:
    """Acceptance criterion: on every registered experiment, every
    core's attribution sums exactly to its machine's engine.now."""

    def experiment_ids(self):
        from repro.experiments import all_experiments
        return [e.experiment_id for e in all_experiments()]

    @pytest.mark.parametrize("experiment_id", [
        f"E{n:02d}" for n in range(1, 19)])
    def test_buckets_sum_to_engine_now(self, experiment_id):
        import repro.obs as obs
        from repro.experiments import get_experiment

        experiment = get_experiment(experiment_id)
        with obs.session(experiment_id) as sess:
            experiment.run(quick=True)
        # analytic / queueing-only experiments build no Machine; the
        # invariant is then vacuous and covered by the machines they
        # do build in the E01/E02/... cases
        for machine in sess.machines:
            now = machine.engine.now
            # snapshot() itself raises on over-attribution; assert the
            # exact-sum side too
            for buckets in machine.obs.profiler.snapshot(now).values():
                assert sum(buckets[b] for b in BUCKETS) == now
                assert buckets["total"] == now

    @pytest.mark.parametrize("experiment_id", ["E02", "E18"])
    def test_instrumentation_schedules_what_plain_runs_schedule(
            self, experiment_id, monkeypatch):
        # no observer effect: the profiler hooks only record, so a run
        # inside an obs session dispatches the same engine events per
        # machine, and renders the same table, as the same run without
        # one (E02 and E18 are the cases where an instrumented issue
        # loop without the merged-stall skip resumed more often)
        import repro.obs as obs
        from repro.experiments import get_experiment
        from repro.machine import Machine

        built = []
        init = Machine.__init__

        def recording_init(machine, *args, **kwargs):
            init(machine, *args, **kwargs)
            built.append(machine)

        monkeypatch.setattr(Machine, "__init__", recording_init)
        experiment = get_experiment(experiment_id)
        plain_table = experiment.run(quick=True).render()
        plain_events = [m.engine.events_processed for m in built]
        built.clear()
        with obs.session(experiment_id) as sess:
            instrumented_table = experiment.run(quick=True).render()
        assert sess.machines == built
        assert plain_events
        assert [m.engine.events_processed for m in built] == plain_events
        assert instrumented_table == plain_table

    def test_some_experiments_do_build_machines(self):
        import repro.obs as obs
        from repro.experiments import get_experiment

        with obs.session("E02") as sess:
            get_experiment("E02").run(quick=True)
        assert sess.machines
        assert any(profile.cores
                   for machine in sess.machines
                   for profile in [machine.obs.profiler])

    def test_registry_covers_all_eighteen(self):
        assert self.experiment_ids() == [
            f"E{n:02d}" for n in range(1, 19)]
