"""CHRIS — the Collaborative Heart Rate Inference System (paper Sec. III).

This package is the paper's primary contribution, rebuilt on top of the
reproduction's substrates:

* :mod:`repro.core.zoo` — the Models Zoo: HR predictors paired with their
  deployment characterization (accuracy + per-device energy/latency);
* :mod:`repro.core.configuration` — CHRIS *configurations*: a pair of HR
  models, a difficulty threshold, and an execution mapping (fully local or
  hybrid with the complex model offloaded to the phone), plus the
  enumeration of the 60-configuration design space of Sec. III-C;
* :mod:`repro.core.profiling` — the offline profiling step that attaches
  an average MAE and smartwatch energy to every configuration;
* :mod:`repro.core.pareto` — Pareto-front extraction over (MAE, energy);
* :mod:`repro.core.decision_engine` — the two-level Decision Engine:
  constraint- and connection-aware configuration selection, followed by
  per-window model selection driven by the predicted activity difficulty;
* :mod:`repro.core.runtime` — the runtime simulator that plays a windowed
  recording through CHRIS and reports per-window decisions, error, and
  energy.
"""

import repro.core.faults as faults  # noqa: F401 - re-exported fault harness
from repro.core.zoo import ModelsZoo, ZooEntry
from repro.core.checkpoint import (
    FleetJournal,
    RunStager,
    ShardStatus,
    StagedShardError,
)
from repro.core.configuration import (
    Configuration,
    ExecutionMode,
    ProfiledConfiguration,
    enumerate_configurations,
)
from repro.core.profiling import ConfigurationProfiler, ConfigurationTable, ProfilingData
from repro.core.pareto import is_dominated, pareto_front, pareto_indices
from repro.core.decision_engine import Constraint, ConstraintKind, DecisionEngine
from repro.core.runtime import CHRISRuntime, FleetResult, RunResult
from repro.core.fleet import FleetExecutor, SharedSubjectStore
from repro.core.scheduler import FleetScheduler, FleetSession, SessionState

__all__ = [
    "ModelsZoo",
    "ZooEntry",
    "Configuration",
    "ExecutionMode",
    "ProfiledConfiguration",
    "enumerate_configurations",
    "ConfigurationProfiler",
    "ConfigurationTable",
    "ProfilingData",
    "is_dominated",
    "pareto_front",
    "pareto_indices",
    "Constraint",
    "ConstraintKind",
    "DecisionEngine",
    "CHRISRuntime",
    "FleetExecutor",
    "FleetJournal",
    "FleetResult",
    "FleetScheduler",
    "FleetSession",
    "RunResult",
    "RunStager",
    "SessionState",
    "ShardStatus",
    "SharedSubjectStore",
    "StagedShardError",
    "faults",
]
