"""Synthetic fleet workloads and the sequential replay baseline.

The throughput benchmarks (``benchmarks/harness.py``), the fleet
equivalence tests and the fleet examples replay the same workloads:
windowed pseudo-recordings built directly from arrays (no signal
synthesis), a stateful-heavy twin of a calibrated zoo, and
:func:`sequential_replay`, the loop of per-subject
:meth:`~repro.core.runtime.CHRISRuntime.run` calls every multi-subject
path is pinned against.
"""

from __future__ import annotations

import numpy as np

from repro.core.decision_engine import Constraint
from repro.core.runtime import CHRISRuntime, FleetResult
from repro.core.zoo import ModelsZoo, ZooEntry
from repro.data.dataset import WindowedSubject
from repro.models.error_model import SmoothedCalibratedHRModel
from repro.models.spectral_tracker import SpectralHRPredictor
from repro.signal.windowing import DEFAULT_WINDOW_SPEC


def synthetic_workload(
    n_windows: int = 10_000,
    window_length: int = 256,
    seed: int = 0,
) -> WindowedSubject:
    """A large windowed pseudo-recording for throughput measurements.

    Activities cycle through all nine difficulty levels in contiguous
    blocks (so every model of a hybrid configuration receives work), the
    HR follows a slow sinusoid, and the raw signals are white noise — the
    calibrated zoo never reads them, and the workload builds in
    milliseconds instead of synthesizing hours of PPG.
    """
    if n_windows <= 0:
        raise ValueError(f"n_windows must be positive, got {n_windows}")
    rng = np.random.default_rng(seed)
    activity = np.arange(n_windows, dtype=int) // max(1, n_windows // 90) % 9
    hr = 70.0 + 30.0 * np.sin(np.linspace(0.0, 20.0 * np.pi, n_windows))
    return WindowedSubject(
        subject_id=f"synthetic-{n_windows}w",
        ppg_windows=rng.standard_normal((n_windows, window_length)),
        accel_windows=rng.standard_normal((n_windows, window_length, 3)),
        activity=activity,
        hr=hr,
        spec=DEFAULT_WINDOW_SPEC,
    )


def synthetic_fleet(
    n_subjects: int = 50,
    n_windows_per_subject: int = 2_000,
    window_length: int = 16,
    seed: int = 0,
) -> list[WindowedSubject]:
    """A fleet of windowed pseudo-recordings for fleet-throughput runs.

    One :func:`synthetic_workload` per subject with a distinct seed and
    id.  The window length is kept short because the calibrated zoo never
    reads the signal arrays; 50 subjects x 2k windows fit in ~40 MB
    instead of the ~1 GB full-length windows would take.
    """
    if n_subjects <= 0:
        raise ValueError(f"n_subjects must be positive, got {n_subjects}")
    fleet = []
    for i in range(n_subjects):
        subject = synthetic_workload(
            n_windows=n_windows_per_subject, window_length=window_length, seed=seed + i
        )
        subject.subject_id = f"fleet-{i:03d}"
        fleet.append(subject)
    return fleet


def sequential_replay(
    runtime: CHRISRuntime,
    subjects,
    constraint: Constraint,
    use_oracle_difficulty: bool = False,
    connected_traces=None,
    systems=None,
) -> FleetResult:
    """Replay a fleet one subject at a time: a loop of per-subject runs.

    The baseline every multi-subject path is pinned against, bit for bit
    and in throughput: one
    :meth:`~repro.core.runtime.CHRISRuntime.run` per subject, or
    :meth:`~repro.core.runtime.CHRISRuntime.run_with_connection_trace`
    for subjects with a trace in ``connected_traces``, on the hardware
    ``systems`` maps them to.
    """
    traces = connected_traces or {}
    systems = systems or {}
    fleet = FleetResult()
    for subject in subjects:
        sid = subject.subject_id
        if sid in traces:
            result = runtime.run_with_connection_trace(
                subject, constraint, traces[sid], use_oracle_difficulty, system=systems.get(sid)
            )
        else:
            result = runtime.run(
                subject, constraint, use_oracle_difficulty, system=systems.get(sid)
            )
        fleet.add(sid, result)
    return fleet


def stateful_zoo(
    zoo: ModelsZoo, smoothing: float = 0.5, spectral: str | None = "AT"
) -> ModelsZoo:
    """A stateful-heavy twin of a calibrated zoo.

    Every predictor becomes a stateful tracker (``FLEET_BATCHABLE =
    False``): the ``spectral`` deployment gets a real
    :class:`~repro.models.spectral_tracker.SpectralHRPredictor` (a
    signal-reading tracker whose tracking recurrence runs window by
    window within a subject), the others become
    :class:`~repro.models.error_model.SmoothedCalibratedHRModel` twins
    continuing the original's exact random stream.  Deployments are
    untouched, so engine configurations stay valid.  This is the zoo the
    stacked-state fleet benchmark and equivalence tests replay.
    """
    twin = ModelsZoo()
    for entry in zoo:
        if entry.name == spectral:
            predictor: object = SpectralHRPredictor()
        else:
            predictor = SmoothedCalibratedHRModel.from_calibrated(
                entry.predictor, smoothing=smoothing
            )
        twin.add(ZooEntry(predictor=predictor, deployment=entry.deployment))
    return twin
