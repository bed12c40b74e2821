"""The parallel evaluation runner must be invisible in the results."""

import pytest

from repro.errors import ConfigError
from repro.experiments import all_experiments
from repro.experiments.parallel import run_parallel


def test_parallel_matches_serial_byte_for_byte():
    serial = [experiment.run(quick=True)
              for experiment in all_experiments()]
    parallel = run_parallel(quick=True, workers=4)
    assert [r.experiment_id for r in parallel] == \
        [r.experiment_id for r in serial]
    for fast, slow in zip(parallel, serial):
        assert fast.render_markdown() == slow.render_markdown()


def test_subset_and_order_preserved():
    results = run_parallel(["E04", "E02"], quick=True, workers=2)
    assert [r.experiment_id for r in results] == ["E04", "E02"]


def test_single_worker_runs_in_process():
    results = run_parallel(["E02"], quick=True, workers=1)
    assert results[0].experiment_id == "E02"


def test_invalid_worker_count():
    with pytest.raises(ConfigError):
        run_parallel(["E02"], quick=True, workers=0)


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        run_parallel(["E99"], quick=True)
