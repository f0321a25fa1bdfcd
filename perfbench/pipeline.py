"""The paper's real pipeline and the benchmark's seeded inputs.

Every workload runs the same pipeline: the trained ``ActivityClassifier``
random forest predicts each window's difficulty, the ``DecisionEngine``
(profiled on the calibrated stand-ins, whose MAEs are the paper's)
routes it, and the adaptive-threshold detector or a frozen TimePPG
network at ``input_length=256`` predicts HR from the 256-sample PPG and
accelerometer window.  Costs come from ``WearableSystem``.  The TimePPG
weights are seeded, not trained, so the MAE this pipeline reports is a
regression guard, not the paper's number.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass

import numpy as np

from repro.core.runtime import CHRISRuntime
from repro.core.zoo import ModelsZoo, ZooEntry
from repro.data.dataset import WindowedSubject
from repro.data.synthetic import SyntheticDaliaGenerator, SyntheticDatasetConfig
from repro.eval.experiment import CalibratedExperiment
from repro.hw.profiles import PAPER_DEPLOYMENTS
from repro.ml.activity_classifier import ActivityClassifier
from repro.models.adaptive_threshold import AdaptiveThresholdPredictor
from repro.models.timeppg import TIMEPPG_BIG_CONFIG, TIMEPPG_SMALL_CONFIG, TimePPGPredictor
from repro.nn.layers import Conv1d
from repro.nn.network import fold_batchnorm
from repro.nn.ops_count import layer_summary

from tracing import model_slug

#: Seed of the classifier's training corpus and of the TimePPG weights.
#: Fixed, so set-up does the same work whatever the workload seed.
PIPELINE_SEED = 20230417

#: Workload fleet shape: one 9-activity session of 120 s bouts per
#: subject, i.e. 537 windows of 8 s at a 2 s stride.
N_SUBJECTS = 8
BOUT_S = 120.0

#: Windows of every activity bout a traced subject spends disconnected.
DROP_WINDOWS = 8


@dataclass
class Pipeline:
    """The building blocks every workload's runtime is made from."""

    experiment: CalibratedExperiment
    classifier: ActivityClassifier
    zoo: ModelsZoo

    def runtime(self) -> CHRISRuntime:
        """A float64 runtime over a private copy of the frozen zoo."""
        return CHRISRuntime(
            zoo=copy.deepcopy(self.zoo),
            engine=self.experiment.engine,
            system=self.experiment.system,
            activity_classifier=self.classifier,
        )

    def conv_macs(self) -> dict[str, list[int]]:
        """Per-window MACs of every Conv1d of each TimePPG, in forward order."""
        out = {}
        for entry in self.zoo:
            predictor = entry.predictor
            if not isinstance(predictor, TimePPGPredictor):
                continue
            shape = (predictor.config.input_channels, predictor.config.input_length)
            # The folded network is the one freeze() runs.
            network = fold_batchnorm(predictor.network)
            out[model_slug(entry.name)] = [
                summary.macs
                for layer, summary in zip(network.layers, layer_summary(network, shape))
                if isinstance(layer, Conv1d)
            ]
        return out


def build_pipeline() -> Pipeline:
    """Experiment and engine, trained RF, frozen real zoo (the timed set-up)."""
    experiment = CalibratedExperiment.build(seed=0, n_subjects=4, activity_duration_s=40.0)
    corpus = SyntheticDaliaGenerator(
        SyntheticDatasetConfig(n_subjects=2, activity_duration_s=60.0, seed=PIPELINE_SEED)
    ).generate_windowed()
    train = corpus.concatenated()
    classifier = ActivityClassifier(random_state=0).fit(train.accel_windows, train.activity)
    zoo = ModelsZoo()
    predictors = {
        "AT": AdaptiveThresholdPredictor(),
        "TimePPG-Small": TimePPGPredictor(TIMEPPG_SMALL_CONFIG, seed=PIPELINE_SEED).freeze(),
        "TimePPG-Big": TimePPGPredictor(TIMEPPG_BIG_CONFIG, seed=PIPELINE_SEED).freeze(),
    }
    for name in experiment.zoo.names:
        zoo.add(ZooEntry(predictor=predictors[name], deployment=PAPER_DEPLOYMENTS[name]))
    return Pipeline(experiment=experiment, classifier=classifier, zoo=zoo)


def timed_setup(build, repeats: int, keep_last: bool = True):
    """Run ``build()`` ``repeats`` times; return the last result and every time.

    ``build`` returns ``(value, discard)``; ``discard(value)`` releases
    what an unused repetition started (a scheduler's threads).  With
    ``keep_last=False`` the last repetition is released too.
    """
    times = []
    for i in range(repeats):
        start = time.perf_counter()
        value, discard = build()
        times.append(time.perf_counter() - start)
        if discard is not None and (i < repeats - 1 or not keep_last):
            discard(value)
    return value, times


def synth_fleet(seed: int) -> list[WindowedSubject]:
    """The workload fleet: :data:`N_SUBJECTS` seeded synthetic PPG-DaLiA subjects.

    The resting HR is pinned: with seeded, untrained TimePPG weights the
    MAE is dominated by each subject's HR level, and a seed-dependent
    level would make the ``mae_bpm`` guard vary by seed, not by program.
    Routing and compute do not depend on it.
    """
    config = SyntheticDatasetConfig(
        n_subjects=N_SUBJECTS, activity_duration_s=BOUT_S, seed=seed, resting_hr_range=(65.0, 65.0)
    )
    return SyntheticDaliaGenerator(config).generate_windowed().subjects


def ble_traces(subjects: list[WindowedSubject], seed: int) -> dict[str, np.ndarray]:
    """Seeded BLE connection traces for every other subject.

    A traced subject loses the link once in every activity bout, for
    :data:`DROP_WINDOWS` windows at a seeded offset, so the engine
    re-selects a local configuration mid-session and all three models
    receive windows.  One drop per bout keeps the difficulty mix of the
    disconnected windows, and with it the watch energy, the same for
    every seed.
    """
    rng = np.random.default_rng([seed, 1])
    traces = {}
    for subject in subjects[::2]:
        trace = np.ones(subject.n_windows, dtype=bool)
        starts = np.flatnonzero(np.diff(subject.activity, prepend=-1) != 0)
        ends = np.append(starts[1:], subject.n_windows)
        for start, end in zip(starts, ends):
            if end - start > DROP_WINDOWS:
                offset = start + int(rng.integers(0, end - start - DROP_WINDOWS))
                trace[offset : offset + DROP_WINDOWS] = False
        traces[subject.subject_id] = trace
    return traces
