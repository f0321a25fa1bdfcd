"""REP004 fixture (clean twin): contracts held.

``GoodPredictor``/``DelegatingPredictor`` subclass the root defined in
``contract_dirty.py`` (the class graph is name-based across the whole
fixture corpus), declare the flag, and handle fleet state the two
accepted ways.  The twin pair ``scale_rows``/``scale_rows_batch`` is
complete with matching defaults.
"""


class GoodPredictor(HeartRatePredictor):  # noqa: F821 - resolved by name in the lint class graph
    FLEET_BATCHABLE = True

    def predict_fleet(self, ppg, accel=None, subject_index=None, state=None):
        subject_index = self._check_fleet_stack(len(ppg), subject_index, state)
        return ppg


class DelegatingPredictor(GoodPredictor):
    FLEET_BATCHABLE = False

    def predict_fleet(self, ppg, accel=None, subject_index=None, state=None):
        return super().predict_fleet(ppg, accel, subject_index, state)


class Unrelated:
    """Not in the predictor hierarchy: never checked."""


def scale_rows(x, scale=2.0):
    return x * scale


def scale_rows_batch(xs, scale=2.0):
    return [x * scale for x in xs]
