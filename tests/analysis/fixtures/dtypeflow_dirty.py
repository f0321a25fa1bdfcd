"""REP001 fixture (dirty twin): float64-pinned helpers feeding dtype-aware
callers.  The pins are ``dtype=`` keywords naming float64 on
non-boundary allocations, so REP001 flags them where they are made —
before any caller, direct or through a ``return helper(...)`` chain,
consumes the pinned array.  Parsed, never imported.
"""

import numpy as np

from repro.dtypes import resolve_dtype


def _pinned_grid(n):
    return np.arange(n, dtype="float64")  # PLANT: REP001


def _pinned_scratch(n):
    buf = np.zeros(n, dtype="float64")  # PLANT: REP001
    return buf


def _grid_via_chain(n):
    # Hands on _pinned_grid's float64 array one call deeper.
    return _pinned_grid(n)


def window_positions(n, dtype=None):
    dt = resolve_dtype(dtype)
    grid = _pinned_grid(n)
    return (grid / n).astype(dt, copy=False)


def scratch_rows(n, dtype=None):
    dt = resolve_dtype(dtype)
    buf = _pinned_scratch(n)
    return buf.astype(dt, copy=False)


def chained_positions(n):
    dt = resolve_dtype(None)
    grid = _grid_via_chain(n)
    return (grid * 2).astype(dt, copy=False)
