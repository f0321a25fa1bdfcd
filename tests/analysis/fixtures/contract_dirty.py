"""REP004 fixture (dirty twin): broken equivalence contracts.

Defines its own ``HeartRatePredictor`` root so the class-graph closure
runs entirely inside the fixture corpus.  The twin-pair registry for
this module (configured in the test) names ``scalar_fn``/``scalar_fn_batch``
(batch missing) and ``other_fn``/``other_fn_batch`` (default mismatch).
"""


class HeartRatePredictor:
    FLEET_BATCHABLE = False

    def predict_fleet(self, ppg, accel=None, subject_index=None, state=None):
        subject_index = self._check_fleet_stack(len(ppg), subject_index, state)
        return ppg

    def _check_fleet_stack(self, n, subject_index, state):
        return subject_index


class MissingFlag(HeartRatePredictor):  # PLANT: REP004
    """Does not declare the flag: one finding."""


class BadFleetOverride(HeartRatePredictor):
    FLEET_BATCHABLE = True

    def predict_fleet(self, ppg, accel=None, subject_index=None, state=None):  # PLANT: REP004
        return [p * 2.0 for p in ppg]


class IndirectlyBad(BadFleetOverride):  # PLANT: REP004
    """Transitive subclass missing the flag — the closure must reach it."""


def scalar_fn(x, scale=2.0):  # PLANT: REP004
    # The registry names scalar_fn_batch, which does not exist.
    return x * scale


def other_fn(x, scale=2.0):
    return x * scale


def other_fn_batch(xs, scale=3.0):  # PLANT: REP004
    # Default for ``scale`` disagrees with other_fn.
    return [x * scale for x in xs]
