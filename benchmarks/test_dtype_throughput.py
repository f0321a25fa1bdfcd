"""Float32 engine throughput: per-dtype floors over the float64 reference.

The dtype-parameterized runtime exists to buy throughput: a float32
fleet halves the memory traffic of the batched adaptive-threshold
kernels and runs TimePPG's frozen GEMMs in single precision.  This
benchmark pins regression floors for both paths — if a future change
silently re-promotes the float32 pipeline to float64 (a stray python
float is harmless under NEP 50, but a float64 constant array is not),
the speedup collapses to ~1.0x and the floors fail loudly.

Equivalence rides along: the float32 AT run must detect the same peak
trains as float64 on the margin-rich synthetic workload (identical
integer trains -> bit-equal BPM), and the float32 TimePPG outputs must
sit inside the documented float32 tolerance band
(``EQUIVALENCE_TOLERANCES["float32"]``).
"""

import json

import pytest

from benchmarks.conftest import emit
from benchmarks.harness import benchmark_dtype_inference

#: Required float32 speedup of the batched AT detector over the float64
#: run of the same window stack (measured ~1.25-1.6x best-of-5; the
#: float path is memory-bound, the region bookkeeping is integer work
#: common to both dtypes).
MIN_AT_FLOAT32_SPEEDUP = 1.2

#: Required float32 speedup of the frozen TimePPG inference forward over
#: the float64 forward at mega-batch chunk sizes (measured ~1.4-1.7x;
#: single-precision GEMM plus halved im2col traffic).
MIN_TIMEPPG_FLOAT32_SPEEDUP = 1.3


@pytest.mark.slow
def test_dtype_engine_throughput(results_dir):
    outcome = benchmark_dtype_inference(seed=0, repeats=5)
    at, nn = outcome["at"], outcome["timeppg"]

    emit(
        results_dir,
        "dtype_throughput",
        "\n".join(
            [
                f"AT: {at['n_windows']} x {at['window_length']}-sample windows, "
                f"float64 {at['float64_windows_per_s']:,.0f} w/s, "
                f"float32 {at['float32_windows_per_s']:,.0f} w/s "
                f"({at['float32_speedup']:.2f}x, floor {MIN_AT_FLOAT32_SPEEDUP:.1f}x)",
                f"TimePPG ({nn['variant']}): "
                f"float64 {nn['float64_windows_per_s']:,.0f} w/s, "
                f"float32 {nn['float32_windows_per_s']:,.0f} w/s "
                f"({nn['float32_speedup']:.2f}x, floor {MIN_TIMEPPG_FLOAT32_SPEEDUP:.1f}x)",
            ]
        ),
    )
    (results_dir / "dtype_throughput.json").write_text(
        json.dumps(outcome, indent=2) + "\n"
    )

    assert at["bpm_identical"], (
        "float32 AT detected different peak trains than float64 on the "
        "margin-rich synthetic workload"
    )
    assert at["float32_speedup"] >= MIN_AT_FLOAT32_SPEEDUP
    assert nn["within_tolerance"], (
        "float32 TimePPG left the documented float32 tolerance band"
    )
    assert nn["float32_speedup"] >= MIN_TIMEPPG_FLOAT32_SPEEDUP
