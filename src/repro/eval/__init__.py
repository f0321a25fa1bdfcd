"""Evaluation harness.

High-level entry points used by the examples and the benchmark suite:

* :mod:`repro.eval.experiment` — assembling zoos (calibrated or real),
  generating profiling data on the synthetic corpus, and the single-model
  baseline characterization of the paper's Sec. IV-A;
* :mod:`repro.eval.figures` — the data series behind each figure of the
  paper (Fig. 3 bars, Fig. 4 scatter/Pareto, Fig. 5 threshold sweep);
* :mod:`repro.eval.crossval` — the paper's 5-fold leave-subjects-out
  protocol for training and evaluating real models end to end;
* :mod:`repro.eval.reporting` — plain-text tables, including
  paper-vs-measured comparison rows recorded in EXPERIMENTS.md;
* :mod:`repro.eval.workloads` — array-built synthetic fleets, a
  stateful twin of a calibrated zoo, and the sequential replay baseline
  the throughput benchmarks (``benchmarks/harness.py``) and the fleet
  equivalence tests run.
"""

from repro.eval.experiment import (
    BaselinePoint,
    CalibratedExperiment,
    baseline_points,
    build_calibrated_zoo,
    make_profiling_data,
)
from repro.eval.figures import (
    Fig3Series,
    Fig4Series,
    Fig5Series,
    fig3_baseline_bars,
    fig4_configuration_space,
    fig5_threshold_sweep,
)
from repro.eval.crossval import CrossValidationResult, run_cross_validation
from repro.eval.reporting import comparison_table, format_table

__all__ = [
    "BaselinePoint",
    "CalibratedExperiment",
    "baseline_points",
    "build_calibrated_zoo",
    "make_profiling_data",
    "Fig3Series",
    "Fig4Series",
    "Fig5Series",
    "fig3_baseline_bars",
    "fig4_configuration_space",
    "fig5_threshold_sweep",
    "CrossValidationResult",
    "run_cross_validation",
    "comparison_table",
    "format_table",
]
