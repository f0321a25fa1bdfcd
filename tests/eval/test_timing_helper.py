"""The benchmark harness's one timing helper, ``time_sides``."""

import gc

import pytest

from benchmarks import harness
from benchmarks.harness import Side, time_sides


class FakeClock:
    """A clock that moves only when a test moves it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.mark.parametrize("n_sides", [2, 3])
def test_rounds_rotate_the_leading_side(n_sides):
    names = [f"side-{i}" for i in range(n_sides)]
    calls = []
    sides = {name: Side(lambda _, name=name: calls.append(name)) for name in names}
    time_sides(sides, rounds=7)
    expected = []
    for round_ in range(7):
        lead = round_ % n_sides
        expected += names[lead:] + names[:lead]
    assert calls == expected


def test_setup_and_teardown_are_not_timed(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(harness, "perf_counter", clock)

    def setup():
        clock.now += 100.0
        return 2.0

    def run(seconds):
        clock.now += seconds

    def teardown(_):
        clock.now += 1_000.0

    timings = time_sides(
        {"slow_setup": Side(run, setup, teardown), "plain": Side(lambda _: run(0.5))}, 3
    )
    assert timings["slow_setup"].samples == [2.0, 2.0, 2.0]
    assert timings["plain"].samples == [0.5, 0.5, 0.5]


def test_each_side_returns_its_samples_and_last_result():
    rounds = iter(range(100))
    timings = time_sides(
        {"a": Side(lambda _: ("a", next(rounds))), "b": Side(lambda _: ("b", next(rounds)))},
        rounds=4,
    )
    assert set(timings) == {"a", "b"}
    assert [len(timing.samples) for timing in timings.values()] == [4, 4]
    assert all(sample >= 0.0 for timing in timings.values() for sample in timing.samples)
    # Round 3 runs b first, then a: the last calls are b -> 6, a -> 7.
    assert timings["a"].result == ("a", 7)
    assert timings["b"].result == ("b", 6)


def test_teardown_runs_when_the_side_raises():
    torn_down = []

    def fail(_):
        raise RuntimeError("side failed")

    with pytest.raises(RuntimeError, match="side failed"):
        time_sides({"failing": Side(fail, teardown=torn_down.append)}, rounds=1)
    assert torn_down == [None]
    assert gc.get_freeze_count() == 0


def test_caller_heap_is_frozen_only_while_timing():
    frozen = []
    time_sides({"a": Side(lambda _: frozen.append(gc.get_freeze_count()))}, rounds=2)
    assert len(frozen) == 2 and all(count > 0 for count in frozen)
    assert gc.get_freeze_count() == 0


def test_nested_calls_are_refused():
    inner = Side(lambda _: time_sides({"inner": Side(lambda _: None)}, rounds=1))
    with pytest.raises(RuntimeError, match="does not nest"):
        time_sides({"outer": inner}, rounds=1)
    assert gc.get_freeze_count() == 0


def test_rounds_must_be_positive():
    with pytest.raises(ValueError, match="rounds"):
        time_sides({"a": Side(lambda _: None)}, rounds=0)
