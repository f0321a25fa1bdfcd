"""Peak detection utilities.

Two detectors are provided:

* :func:`find_peaks_simple` — generic local-maxima detection with a
  minimum-distance constraint.
* :func:`adaptive_threshold_peaks` — the region-of-interest scheme of
  Shin et al. (the "AT" predictor of the paper): samples above the
  rolling mean form regions of interest, and the largest sample of each
  region is a peak.

Both return sample indices; :func:`peak_intervals_to_bpm` converts the
inter-peak intervals into an average heart rate.

The AT detector also has a batched twin operating on a whole
``(n_windows, window_len)`` stack at once —
:func:`adaptive_threshold_peaks_batch` and
:func:`peak_intervals_to_bpm_batch` — whose per-row results are
**bit-identical** to running the scalar functions row by row.  Every
step is either elementwise (threshold recurrence, comparisons, interval
arithmetic) or confined to one row's samples (region maxima, interval
means), and the final interval mean uses the same strictly sequential
left-to-right summation as the scalar path, so no floating-point
reassociation can creep in.

The accelerometer "number of peaks" feature is
:func:`count_sign_changes_batch` (sign changes of each row's discrete
derivative); :func:`count_sign_changes` is its one-row call.
"""

from __future__ import annotations

import numpy as np

from repro.dtypes import as_floating
from repro.signal.filters import moving_average, moving_average_batch


def find_peaks_simple(x: np.ndarray, min_distance: int = 1, min_height: float | None = None) -> np.ndarray:
    """Indices of local maxima separated by at least ``min_distance`` samples.

    A sample is a candidate peak when it is strictly greater than its left
    neighbour and greater than or equal to its right neighbour.  Candidates
    are then greedily selected in decreasing amplitude order, discarding any
    candidate closer than ``min_distance`` to an already selected peak.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"find_peaks_simple expects a 1-D signal, got shape {x.shape}")
    if x.size < 3:
        return np.array([], dtype=int)
    if min_distance < 1:
        raise ValueError(f"min_distance must be >= 1, got {min_distance}")

    left = x[1:-1] > x[:-2]
    right = x[1:-1] >= x[2:]
    candidates = np.nonzero(left & right)[0] + 1
    if min_height is not None:
        candidates = candidates[x[candidates] >= min_height]
    if candidates.size == 0 or min_distance == 1:
        return candidates

    order = np.argsort(x[candidates])[::-1]
    selected: list[int] = []
    taken = np.zeros(x.size, dtype=bool)
    for idx in candidates[order]:
        lo = max(0, idx - min_distance + 1)
        hi = min(x.size, idx + min_distance)
        if not taken[lo:hi].any():
            selected.append(int(idx))
            taken[idx] = True
    return np.array(sorted(selected), dtype=int)


def adaptive_threshold_peaks(x: np.ndarray, window: int = 24) -> np.ndarray:
    """Peaks according to the Adaptive-Threshold (AT) method.

    The rolling mean over ``window`` samples acts as an adaptive threshold;
    contiguous runs of samples above the threshold are *regions of
    interest*, and the index of the largest sample inside each region is
    reported as a peak.

    Parameters
    ----------
    x:
        1-D PPG window.
    window:
        Rolling-mean length in samples (24 in the paper, i.e. 0.75 s at
        32 Hz).
    """
    x = as_floating(x)
    if x.ndim != 1:
        raise ValueError(f"adaptive_threshold_peaks expects a 1-D signal, got shape {x.shape}")
    if x.size == 0:
        return np.array([], dtype=int)
    threshold = moving_average(x, window)
    above = x > threshold
    if not above.any():
        return np.array([], dtype=int)

    # Find run boundaries of the boolean mask.
    padded = np.concatenate(([False], above, [False]))
    diff = np.diff(padded.astype(int))
    starts = np.nonzero(diff == 1)[0]
    ends = np.nonzero(diff == -1)[0]

    peaks = []
    for start, end in zip(starts, ends):
        region = x[start:end]
        peaks.append(start + int(np.argmax(region)))
    return np.array(peaks, dtype=int)


def peak_intervals_to_bpm(peaks: np.ndarray, fs: float, min_bpm: float = 30.0, max_bpm: float = 220.0) -> float:
    """Average heart rate (beats per minute) from successive peak indices.

    Inter-peak intervals outside the physiologically plausible
    ``[min_bpm, max_bpm]`` band are discarded before averaging; if no valid
    interval remains, ``nan`` is returned and callers are expected to fall
    back to a default (the runtime uses the previous estimate).
    """
    peaks = np.asarray(peaks)
    if peaks.size < 2:
        return float("nan")
    intervals = np.diff(peaks) / float(fs)  # seconds between beats
    with np.errstate(divide="ignore"):
        bpm = 60.0 / intervals
    valid = bpm[(bpm >= min_bpm) & (bpm <= max_bpm)]
    if valid.size == 0:
        return float("nan")
    # Strictly sequential left-to-right sum (``cumsum``) rather than
    # ``mean``'s pairwise reduction: the batched twin reproduces this
    # accumulation order exactly, which is what keeps
    # ``peak_intervals_to_bpm_batch`` bit-identical per row.
    return float(np.cumsum(valid)[-1]) / valid.size


def adaptive_threshold_peaks_batch(  # hot-path
    x: np.ndarray, window: int = 24
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise AT peak detection over a ``(n_windows, window_len)`` batch.

    Vectorized twin of :func:`adaptive_threshold_peaks`: the rolling-mean
    threshold, the region-of-interest extraction and the per-region
    argmax all run as flat array operations over the whole batch, yet
    every row's peaks are exactly the peaks the scalar detector finds on
    that row alone (regions never span rows, region maxima are exact
    comparisons, and ties resolve to the first maximum like
    ``np.argmax``).

    Returns
    -------
    (rows, positions):
        Parallel int arrays naming each peak's window row and its sample
        index inside that row, sorted by ``(row, position)``.
    """
    x = as_floating(x)
    if x.ndim != 2:
        raise ValueError(
            f"adaptive_threshold_peaks_batch expects a 2-D batch, got shape {x.shape}"
        )
    n_rows, length = x.shape
    empty = (np.array([], dtype=int), np.array([], dtype=int))
    if n_rows == 0 or length == 0:
        return empty
    threshold = moving_average_batch(x, window)
    above = x > threshold
    if not above.any():
        return empty

    # Region starts of every row at once: an above-threshold sample whose
    # left neighbour (False at the row edge, so runs can never span
    # adjacent rows) is below threshold.
    start_mask = above.copy()
    start_mask[:, 1:] &= ~above[:, :-1]

    # Compact to the in-region samples once and do all remaining work on
    # that (much smaller) gather.  This keeps the full-batch-size passes
    # down to the boolean ops above, which matters because everything
    # here is exact integer/comparison logic — the only dtype-sensitive
    # arrays are ``vals`` and ``region_max``.
    in_region = np.flatnonzero(above.ravel())
    vals = x.ravel()[in_region]
    boundaries = np.flatnonzero(start_mask.ravel()[in_region])

    # Region maxima: one reduceat over the compacted values (each
    # segment runs from a region start to the next — compaction removed
    # the gaps, and regions never span rows).  ``vals`` holds no NaN (a
    # NaN sample is never above threshold), so ``fmax`` is ``maximum``
    # without the NaN checks.
    region_max = np.fmax.reduceat(vals, boundaries)

    # First in-region position equal to the region max == np.argmax of
    # the region (float equality against an exact maximum).  Every region
    # holds at least one hit, so as many hits as regions means one each;
    # only tied maxima need the first hit per region picked out.
    sizes = np.diff(boundaries, append=vals.size)
    hits = np.flatnonzero(vals == np.repeat(region_max, sizes))
    if hits.size != boundaries.size:
        hit_region = np.searchsorted(boundaries, hits, side="right")
        first = np.empty(hits.size, dtype=bool)
        first[0] = True
        np.not_equal(hit_region[1:], hit_region[:-1], out=first[1:])
        hits = hits[first]
    rows, positions = np.divmod(in_region[hits], length)
    return rows.astype(int, copy=False), positions.astype(int, copy=False)


def peak_intervals_to_bpm_batch(  # hot-path
    peak_rows: np.ndarray,
    peak_positions: np.ndarray,
    n_rows: int,
    fs: float,
    min_bpm: float = 30.0,
    max_bpm: float = 220.0,
) -> np.ndarray:
    """Per-row :func:`peak_intervals_to_bpm` over a batch's stacked peaks.

    ``peak_rows`` / ``peak_positions`` are the
    :func:`adaptive_threshold_peaks_batch` output (row-major order).
    Returns a ``(n_rows,)`` float array with ``nan`` where a row has no
    valid interval, each entry bit-identical to the scalar conversion of
    that row's peaks: intervals, the plausibility band and the final
    strictly sequential interval mean are the same operations in the
    same order (zero padding in the dense accumulation is exact — valid
    BPM values are strictly positive).
    """
    peak_rows = np.asarray(peak_rows, dtype=np.intp)
    peak_positions = np.asarray(peak_positions, dtype=np.intp)
    # Scratch arrays carry explicit dtypes: the BPM math happens in float64
    # today (intervals come from integer positions / float(fs)), and the
    # index ranks are plain platform ints — neither may silently widen a
    # future float32 pipeline's outputs.  The float64 BPM output is a
    # contract, not a leak: AT's estimates stay in the reference precision.
    out = np.full(n_rows, np.nan, dtype=float)  # lint-ok: REP001
    if peak_rows.size < 2:
        return out
    # Intervals are converted for every adjacent pair and the cross-row
    # pairs masked out together with the band, so the per-pair BPM values
    # are the scalar ones and only one gather per output runs.
    with np.errstate(divide="ignore"):
        bpm = 60.0 / (np.diff(peak_positions) / float(fs))
    keep = peak_rows[1:] == peak_rows[:-1]
    keep &= bpm >= min_bpm
    keep &= bpm <= max_bpm
    valid_bpm = bpm[keep]
    valid_rows = peak_rows[1:][keep]
    if valid_bpm.size == 0:
        return out
    counts = np.bincount(valid_rows, minlength=n_rows)
    # Pack each row's valid intervals left-aligned into a dense matrix
    # (``valid_rows`` is sorted, so the within-row rank is the offset
    # from the row's first entry), then accumulate along the columns:
    # cumsum is strictly sequential and the right-padding zeros are
    # exact, so the last column equals the scalar path's running sum.
    row_starts = np.concatenate([[0], np.cumsum(counts)])[:-1]
    rank = np.arange(valid_bpm.size, dtype=np.intp) - row_starts[valid_rows]
    dense = np.zeros((n_rows, int(counts.max())), dtype=valid_bpm.dtype)
    dense[valid_rows, rank] = valid_bpm
    totals = np.cumsum(dense, axis=1)[:, -1]
    has_valid = counts > 0
    out[has_valid] = totals[has_valid] / counts[has_valid]
    return out


def count_sign_changes(x: np.ndarray) -> int:
    """Number of sign changes of the discrete derivative of ``x``.

    This is the "number of peaks" feature used by the activity-recognition
    Random Forest in the paper (a cheap proxy for oscillation rate that the
    LSM6DSM ML core can compute).  A one-row call into
    :func:`count_sign_changes_batch`, which defines the plateau rules.
    """
    x = np.asarray(x, dtype=float)
    return int(count_sign_changes_batch(x.reshape(1, -1))[0])


def count_sign_changes_batch(rows: np.ndarray) -> np.ndarray:  # hot-path
    """Per-row sign changes of the discrete derivative, ``(n_rows, L)`` -> ``(n_rows,)``.

    Zero-derivative plateaus carry no sign of their own: a plateau takes
    the sign before it, and a leading plateau the first sign after it, so
    ``[0, 0, 0, 1, 0]`` and ``[1, 1, 2, 1]`` each change sign once.  A
    row with fewer than three samples, or without a non-zero step, has
    none.  Everything is exact comparison and integer counting, so a
    row's count does not depend on the rows batched with it.  ``rows``
    may be a strided view (the feature extractor passes a time-major
    chunk transposed).
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError(f"count_sign_changes_batch expects (n_rows, L), got shape {rows.shape}")
    if rows.shape[1] < 3:
        return np.zeros(rows.shape[0], dtype=np.intp)
    deriv = rows[:, 1:] - rows[:, :-1]
    rising = deriv > 0
    moving = rising | (deriv < 0)
    if not moving.all():
        # Plateau fill: each step reads ``rising`` at the last moving step
        # at or before it, or at the row's first moving step when none
        # precedes it (rows that never move read step 0 throughout).
        steps = np.arange(deriv.shape[1], dtype=np.intp)
        source = np.where(moving, steps, 0)
        np.maximum.accumulate(source, axis=1, out=source)
        np.maximum(source, np.argmax(moving, axis=1)[:, None], out=source)
        rising = np.take_along_axis(rising, source, axis=1)
    return np.count_nonzero(rising[:, 1:] != rising[:, :-1], axis=1)
