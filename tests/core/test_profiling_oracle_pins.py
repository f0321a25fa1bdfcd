"""The gathered configuration profiler equals its per-window oracle.

Also pins the whole offline set-up: an experiment built with every
set-up oracle swapped in (per-threshold split search, per-sample
synthesis, per-window profiling) is bit-identical to one built as
shipped.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core.profiling import ConfigurationProfiler
from repro.eval.experiment import CalibratedExperiment
from tests.core.profiling_oracle import profile_all_oracle, profile_configuration_oracle
from tests.data.synthesis_oracle import oracle_synthesis
from tests.ml.split_oracle import oracle_split_search


def _table_rows(table):
    return [
        (c.configuration, c.mae_bpm, c.watch_energy_j, c.phone_energy_j, c.mean_latency_s, c.offload_fraction)
        for c in table
    ]


@pytest.mark.parametrize("fixture", ["calibrated_experiment", "oracle_experiment"])
def test_profile_all_matches_oracle(request, fixture):
    experiment = request.getfixturevalue(fixture)
    profiler = ConfigurationProfiler(experiment.zoo, experiment.system)
    got = profiler.profile_all(experiment.data)
    want = profile_all_oracle(profiler, experiment.data)
    assert len(got) == 60
    assert _table_rows(got) == _table_rows(want)
    assert _table_rows(experiment.table) == _table_rows(want)


def test_profile_configuration_matches_oracle(calibrated_experiment):
    profiler = ConfigurationProfiler(calibrated_experiment.zoo, calibrated_experiment.system)
    data = calibrated_experiment.data
    for profiled in calibrated_experiment.table.configurations[::7]:
        configuration = profiled.configuration
        assert profiler.profile_configuration(configuration, data) == profile_configuration_oracle(
            profiler, configuration, data
        )


@pytest.mark.parametrize("seed", [0, 3])
def test_experiment_build_matches_setup_oracles(seed):
    def build():
        return CalibratedExperiment.build(seed=seed, n_subjects=4, activity_duration_s=40.0)

    got = build()
    with oracle_split_search(), oracle_synthesis(), mock.patch.object(
        ConfigurationProfiler, "profile_all", profile_all_oracle
    ):
        want = build()
    assert _table_rows(got.table) == _table_rows(want.table)
    assert np.array_equal(got.data.predicted_difficulty, want.data.predicted_difficulty)
    assert np.array_equal(got.data.true_hr, want.data.true_hr)
    for name in want.data.model_names:
        assert np.array_equal(got.data.errors[name], want.data.errors[name])
