"""Floating-point dtype policy for the reduced-precision inference engine.

The runtime supports two end-to-end floating dtypes: ``float64`` (the
default) and ``float32`` (the reduced-precision deployment path).  Both
run under the same contract — every fused path is bitwise equal to
sequential replay at its dtype (see :mod:`repro.core.runtime`); only
comparisons across dtypes use the per-dtype tolerances.  This module
centralizes the two helpers the inference-path modules need to stay
REP001-clean (dtype discipline, see
:mod:`repro.analysis.dtype_discipline`):

* :func:`resolve_dtype` — normalize and validate a user-facing dtype
  parameter (``"float32"``, ``np.float32``, ``np.dtype`` or ``None``);
* :func:`as_floating` — the boundary coercion used by hot-path kernels:
  floating inputs keep their dtype (no silent re-promotion to float64),
  everything else (ints, lists, bools) is normalized to the default
  float dtype exactly like the historical ``np.asarray(x, dtype=float)``
  contract.
"""

from __future__ import annotations

import numpy as np

#: The reference dtype — NumPy's default float (float64 everywhere we run).
DEFAULT_FLOAT_DTYPE = np.dtype(float)

#: Floating dtypes the inference engine supports end to end.
SUPPORTED_FLOAT_DTYPES = (np.dtype("float64"), np.dtype("float32"))


def resolve_dtype(dtype, default=DEFAULT_FLOAT_DTYPE) -> np.dtype:
    """Normalize a user-facing dtype parameter to a supported ``np.dtype``.

    ``None`` resolves to ``default``; anything else must name one of
    :data:`SUPPORTED_FLOAT_DTYPES`.
    """
    if dtype is None:
        return np.dtype(default)
    resolved = np.dtype(dtype)
    if resolved not in SUPPORTED_FLOAT_DTYPES:
        supported = ", ".join(str(d) for d in SUPPORTED_FLOAT_DTYPES)
        raise ValueError(f"unsupported dtype {resolved} — supported: {supported}")
    return resolved


def as_floating(x, default=DEFAULT_FLOAT_DTYPE) -> np.ndarray:
    """Coerce ``x`` to a floating array, preserving float32/float64 inputs.

    The dtype-inheriting boundary coercion of the inference path: a
    floating array passes through untouched (a float32 batch stays
    float32), while integer/bool/list inputs are normalized to
    ``default`` — the same behaviour ``np.asarray(x, dtype=float)`` gave
    non-floating callers before the reduced-precision engine landed.
    """
    x = np.asarray(x)
    if np.issubdtype(x.dtype, np.floating):
        return x
    return np.asarray(x, dtype=default)
