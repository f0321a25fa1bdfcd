"""REP001 fixture (clean twin of ``dtypeflow_dirty.py``): helpers thread
the caller's dtype through (or coerce caller input at the documented
boundary), so the dtype-aware callers inherit instead of re-promoting."""

import numpy as np

from repro.dtypes import resolve_dtype


def _grid(n, dtype):
    return np.arange(n, dtype=dtype)


def _scratch(n, dtype):
    buf = np.zeros(n, dtype=dtype)
    return buf


def window_positions(n, dtype=None):
    dt = resolve_dtype(dtype)
    grid = _grid(n, dt)
    return grid / n


def scratch_rows(n, dtype=None):
    dt = resolve_dtype(dtype)
    return _scratch(n, dt)


def boundary(values, dtype=None):
    dt = resolve_dtype(dtype)
    # Boundary coercion of caller input — the documented entry contract,
    # exempt from the float64-pin check.
    arr = np.asarray(values, dtype=float)
    return arr.astype(dt, copy=False)
