"""Experiment assembly helpers.

The benchmark harness and the examples need the same building blocks over
and over: a zoo of the paper's three models with their Table III
deployment profiles, a profiling dataset (synthetic corpus + activity
recognizer), the profiled configuration table, and the single-model
baseline points of Sec. IV-A.  :class:`CalibratedExperiment` bundles all
of that behind one constructor so each benchmark stays a few lines long.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.configuration import ProfiledConfiguration
from repro.core.decision_engine import Constraint, DecisionEngine
from repro.core.fleet import FleetExecutor
from repro.core.profiling import ConfigurationProfiler, ConfigurationTable, ProfilingData
from repro.core.runtime import CHRISRuntime, FleetResult
from repro.core.scheduler import FleetScheduler, SessionState
from repro.core.zoo import ModelsZoo, ZooEntry
from repro.data.dataset import WindowedDataset, WindowedSubject
from repro.data.synthetic import SyntheticDaliaGenerator, SyntheticDatasetConfig
from repro.hw.platform import WearableSystem
from repro.hw.profiles import PAPER_DEPLOYMENTS, ExecutionTarget
from repro.ml.activity_classifier import ActivityClassifier
from repro.models.error_model import calibrated_model_zoo


def build_calibrated_zoo(seed: int = 0) -> ModelsZoo:
    """The paper's three models as calibrated predictors + Table III profiles."""
    predictors = calibrated_model_zoo(seed=seed)
    zoo = ModelsZoo()
    for name, predictor in predictors.items():
        zoo.add(ZooEntry(predictor=predictor, deployment=PAPER_DEPLOYMENTS[name]))
    return zoo


@dataclass(frozen=True)
class BaselinePoint:
    """One single-model / single-device baseline (a green diamond of Fig. 4)."""

    model_name: str
    target: ExecutionTarget
    mae_bpm: float
    watch_energy_j: float
    phone_energy_j: float
    latency_s: float

    @property
    def watch_energy_mj(self) -> float:
        """Smartwatch energy per prediction in millijoules."""
        return self.watch_energy_j * 1e3

    def label(self) -> str:
        """Identifier used in reports, e.g. ``TimePPG-Big@phone``."""
        return f"{self.model_name}@{self.target.value}"


def baseline_points(
    zoo: ModelsZoo,
    system: WearableSystem | None = None,
    maes: dict[str, float] | None = None,
) -> list[BaselinePoint]:
    """Single-model baselines on both devices (paper Sec. IV-A / Fig. 3).

    Parameters
    ----------
    zoo:
        Models zoo with deployment profiles.
    system:
        Hardware co-model (paper-calibrated default when omitted).
    maes:
        Measured MAE per model; the deployment profile's MAE is used when
        omitted.
    """
    system = system or WearableSystem()
    points = []
    for entry in zoo:
        mae = (maes or {}).get(entry.name, entry.deployment.mae_bpm)
        local = system.local_prediction_cost(entry.deployment)
        points.append(
            BaselinePoint(
                model_name=entry.name,
                target=ExecutionTarget.WATCH,
                mae_bpm=mae,
                watch_energy_j=local.watch_total_j,
                phone_energy_j=local.phone_compute_j,
                latency_s=local.latency_s,
            )
        )
        offloaded = system.offloaded_prediction_cost(entry.deployment)
        points.append(
            BaselinePoint(
                model_name=entry.name,
                target=ExecutionTarget.PHONE,
                mae_bpm=mae,
                watch_energy_j=offloaded.watch_total_j,
                phone_energy_j=offloaded.phone_compute_j,
                latency_s=offloaded.latency_s,
            )
        )
    return points


def make_profiling_data(
    zoo: ModelsZoo,
    n_subjects: int = 6,
    activity_duration_s: float = 60.0,
    seed: int = 0,
    use_oracle_difficulty: bool = False,
    classifier: ActivityClassifier | None = None,
) -> tuple[ProfilingData, WindowedDataset, ActivityClassifier | None]:
    """Synthetic profiling data for the configuration profiler.

    A synthetic corpus is generated, an activity classifier is trained on
    half of the subjects (unless an oracle or a pre-trained classifier is
    requested), and the zoo models are evaluated on the remaining
    subjects' windows to obtain per-window error traces.

    Returns the profiling data, the full windowed corpus, and the
    classifier actually used (``None`` for the oracle).
    """
    config = SyntheticDatasetConfig(
        n_subjects=n_subjects, activity_duration_s=activity_duration_s, seed=seed
    )
    dataset = SyntheticDaliaGenerator(config).generate_windowed()

    if use_oracle_difficulty:
        classifier = None
        profiling_subjects = dataset.subjects
    elif classifier is None:
        half = max(1, len(dataset.subjects) // 2)
        train = WindowedDataset(dataset.subjects[:half]).concatenated()
        classifier = ActivityClassifier(random_state=seed)
        classifier.fit(train.accel_windows, train.activity)
        profiling_subjects = dataset.subjects[half:]
    else:
        profiling_subjects = dataset.subjects

    profiling_windows = WindowedDataset(list(profiling_subjects)).concatenated()
    data = ProfilingData.from_zoo_predictions(
        zoo,
        profiling_windows,
        activity_classifier=classifier,
        use_oracle_difficulty=use_oracle_difficulty,
    )
    return data, dataset, classifier


@dataclass
class CalibratedExperiment:
    """A fully assembled calibrated-mode experiment.

    Attributes
    ----------
    zoo:
        Calibrated model zoo with Table III deployments.
    system:
        Hardware co-model.
    data:
        Profiling data used to characterize the configurations.
    table:
        Profiled configuration table (the 60-configuration design space).
    engine:
        Decision engine over the table.
    baselines:
        Single-model baseline points.
    """

    zoo: ModelsZoo
    system: WearableSystem
    data: ProfilingData
    table: ConfigurationTable
    engine: DecisionEngine
    baselines: list[BaselinePoint] = field(default_factory=list)

    @classmethod
    def build(
        cls,
        seed: int = 0,
        n_subjects: int = 6,
        activity_duration_s: float = 60.0,
        use_oracle_difficulty: bool = False,
        system: WearableSystem | None = None,
    ) -> "CalibratedExperiment":
        """Assemble the default calibrated experiment used by the benchmarks."""
        zoo = build_calibrated_zoo(seed=seed)
        system = system or WearableSystem()
        data, _, _ = make_profiling_data(
            zoo,
            n_subjects=n_subjects,
            activity_duration_s=activity_duration_s,
            seed=seed,
            use_oracle_difficulty=use_oracle_difficulty,
        )
        profiler = ConfigurationProfiler(zoo, system)
        table = profiler.profile_all(data)
        engine = DecisionEngine(table)
        baselines = baseline_points(zoo, system, maes={n: data.model_mae(n) for n in data.model_names})
        return cls(
            zoo=zoo, system=system, data=data, table=table, engine=engine, baselines=baselines
        )

    # ------------------------------------------------------------ shortcuts
    def runtime(
        self,
        activity_classifier: ActivityClassifier | None = None,
        dtype: str = "float64",
    ) -> CHRISRuntime:
        """A CHRIS runtime wired to this experiment's zoo/engine/system.

        ``dtype`` selects the inference precision of the signal hot path.
        """
        return CHRISRuntime(
            zoo=self.zoo,
            engine=self.engine,
            system=self.system,
            activity_classifier=activity_classifier,
            dtype=dtype,
        )

    def fleet_executor(
        self,
        max_workers: int | None = None,
        activity_classifier: ActivityClassifier | None = None,
        shards_per_worker: int = 4,
        dtype: str = "float64",
    ) -> FleetExecutor:
        """A process-pool fleet executor over this experiment's runtime."""
        return FleetExecutor(
            self.runtime(activity_classifier=activity_classifier, dtype=dtype),
            max_workers=max_workers,
            shards_per_worker=shards_per_worker,
        )

    def fleet_scheduler(
        self,
        constraint: Constraint,
        max_batch_size: int | None = None,
        use_oracle_difficulty: bool = True,
        activity_classifier: ActivityClassifier | None = None,
        dtype: str = "float64",
    ) -> FleetScheduler:
        """An online session scheduler over this experiment's runtime.

        Sessions submitted to the returned scheduler replay
        decision-identically to sequential ``run_many`` in submission
        order; close it (or use it as a context manager) when done.
        """
        return FleetScheduler(
            self.runtime(activity_classifier=activity_classifier, dtype=dtype),
            constraint,
            max_batch_size=max_batch_size,
            use_oracle_difficulty=use_oracle_difficulty,
        )

    def run_fleet(
        self,
        dataset: WindowedDataset,
        constraint: Constraint,
        use_oracle_difficulty: bool = True,
        activity_classifier: ActivityClassifier | None = None,
        max_workers: int | None = None,
        scheduler: FleetScheduler | None = None,
    ) -> FleetResult:
        """Replay every subject of a corpus through the fleet engine.

        The multi-subject entry point used by the benchmarks and examples.
        By default the corpus is replayed in-process; passing
        ``max_workers > 1`` shards the subjects across a
        :class:`~repro.core.fleet.FleetExecutor` process pool.
        ``max_workers`` is purely a throughput knob: every path produces
        decision-for-decision identical results, and no path mutates the
        experiment's predictors (the executor replays pristine copies), so
        repeated calls replay identically.  Use
        :meth:`runtime` + ``run_many`` directly for the advancing-stream
        semantics of consecutive runs.

        Passing a :class:`~repro.core.scheduler.FleetScheduler` routes the
        corpus through the online scheduler instead: every subject is
        submitted as a session and the completed results are merged in
        corpus order.  The scheduler must have been built for the same
        constraint (its sessions all share one; a mismatch raises),
        should have no undelivered results, and is *not* closed — the
        caller keeps submitting to it.  On this path the *scheduler's
        own* configuration governs execution; arguments that would change
        *decisions* (``constraint``, ``use_oracle_difficulty``,
        ``activity_classifier``) are validated against it and a conflict
        raises, while the pure throughput knob ``max_workers`` is ignored
        — every execution path makes identical decisions regardless.  Note that a
        scheduler's predictor streams advance across calls (online
        semantics), unlike the executor paths.
        """
        if scheduler is not None:
            if scheduler.constraint != constraint:
                raise ValueError(
                    f"scheduler was built for constraint {scheduler.constraint}, "
                    f"run_fleet was asked for {constraint}"
                )
            if scheduler.use_oracle_difficulty != use_oracle_difficulty:
                raise ValueError(
                    f"scheduler was built with use_oracle_difficulty="
                    f"{scheduler.use_oracle_difficulty}, run_fleet was asked "
                    f"for {use_oracle_difficulty} — the results would differ"
                )
            if activity_classifier is not None:
                raise ValueError(
                    "activity_classifier cannot be overridden on the scheduler "
                    "path; build the scheduler with it "
                    "(fleet_scheduler(..., activity_classifier=...))"
                )
            sessions = [
                scheduler.submit(subject.subject_id, subject)
                for subject in dataset.subjects
            ]
            remaining = {id(s) for s in sessions}
            for session in scheduler.as_completed():
                remaining.discard(id(session))
                if not remaining:
                    break
            fleet = FleetResult()
            for session in sessions:
                if session.state is not SessionState.DONE:
                    raise session.error or RuntimeError(
                        f"session {session.subject_id!r} ended {session.state.value}"
                    )
                fleet.add(session.subject_id, session.result)
            return fleet
        executor = self.fleet_executor(
            max_workers=max_workers if max_workers is not None else 1,
            activity_classifier=activity_classifier,
        )
        return executor.run_fleet(
            dataset.subjects, constraint, use_oracle_difficulty=use_oracle_difficulty
        )

    def baseline(self, model_name: str, target: ExecutionTarget) -> BaselinePoint:
        """Look up one baseline point."""
        for point in self.baselines:
            if point.model_name == model_name and point.target is target:
                return point
        raise KeyError(f"no baseline for {model_name!r} on {target.value}")

    def select(self, constraint: Constraint, connected: bool = True) -> ProfiledConfiguration:
        """Decision-engine selection under a constraint."""
        return self.engine.select_or_closest(constraint, connected=connected)

    def energy_reduction_vs(self, selected: ProfiledConfiguration, baseline: BaselinePoint) -> float:
        """Smartwatch energy-reduction factor of a selection vs. a baseline."""
        if selected.watch_energy_j <= 0:
            raise ValueError("selected configuration has non-positive energy")
        return baseline.watch_energy_j / selected.watch_energy_j


def subject_windows(dataset: WindowedDataset, subject_id: str) -> WindowedSubject:
    """Convenience accessor kept for the examples."""
    return dataset.subject(subject_id)
