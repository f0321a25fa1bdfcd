#!/usr/bin/env python3
"""Fleet simulation: an online scheduler serving a heterogeneous fleet.

The fleet engine now runs as an *online service*: sessions arrive and
leave dynamically through a :class:`~repro.core.scheduler.FleetScheduler`
instead of a fixed subject list, and one scheduler serves every hardware
revision at once (per-subject
:class:`~repro.hw.platform.WearableSystem`s, each costed once per
revision in every batch).  This example simulates a
day in the life of a 100-device deployment:

1. build the calibrated CHRIS experiment once and start one scheduler;
2. a first wave of 60 stock-hardware users comes online; while their
   sessions stream, a second wave of 40 "rev-B" devices (compressed BLE
   offload payloads) arrives dynamically — no second executor needed;
3. one user powers off before their session was dispatched: the session
   is retired and never consumes compute;
4. per-revision aggregates are computed from the streamed results, and
   the scheduler drain is timed against sequential per-subject replay.

Run with:  python examples/fleet_simulation.py
"""

import copy
import time

from repro.core import Constraint, FleetScheduler, SessionState
from repro.eval import CalibratedExperiment
from repro.eval.workloads import sequential_replay, synthetic_fleet
from repro.hw import WearableSystem


def main() -> None:
    print("== assembling the calibrated CHRIS experiment ==")
    experiment = CalibratedExperiment.build(seed=0, n_subjects=6, activity_duration_s=60.0)
    constraint = Constraint.max_mae(5.60)

    print("== one scheduler, 2 hardware revisions, dynamic arrivals ==")
    subjects = synthetic_fleet(n_subjects=100, n_windows_per_subject=500, seed=0)
    stock = WearableSystem()
    rev_b = WearableSystem(offload_payload_bytes=64 * 4 * 2)
    hardware = {s.subject_id: ("stock", stock) for s in subjects[:60]}
    hardware.update({s.subject_id: ("rev-B", rev_b) for s in subjects[60:]})
    print(f"{len(subjects)} subjects: 60 stock, 40 rev-B (compressed offload)\n")

    print("== streaming sessions as they complete ==")
    start = time.perf_counter()
    collected = {}
    with FleetScheduler(
        experiment.runtime(), constraint, use_oracle_difficulty=True
    ) as scheduler:
        # Wave 1: the stock sub-fleet comes online...
        for subject in subjects[:60]:
            scheduler.submit(subject.subject_id, subject, system=stock)
        # ...one user powers off before their session was dispatched.
        scheduler.pause()
        doomed = scheduler.submit("late-riser", subjects[0])  # resubmission id
        retired = scheduler.retire(doomed)
        scheduler.resume()
        print(f"  session 'late-riser' retired before dispatch: {retired}")

        done = 0
        second_wave_sent = False
        for session in scheduler.as_completed():
            collected[session.subject_id] = session
            done += 1
            if done % 25 == 0 or done == len(subjects):
                print(f"  {done}/{len(subjects)} sessions done "
                      f"({time.perf_counter() - start:.2f} s elapsed)")
            if not second_wave_sent and done >= 20:
                # Wave 2 arrives *while* wave 1 is streaming: the rev-B
                # devices join the same scheduler mid-flight.
                second_wave_sent = True
                for subject in subjects[60:]:
                    scheduler.submit(subject.subject_id, subject, system=rev_b)
                print(f"  +40 rev-B sessions arrived dynamically at "
                      f"{time.perf_counter() - start:.2f} s")
    assert all(s.state is SessionState.DONE for s in collected.values())

    print("\n== fleet aggregates per hardware revision ==")
    for label in ("stock", "rev-B"):
        results = [
            collected[sid].result
            for sid, (revision, _) in hardware.items()
            if revision == label
        ]
        n_windows = sum(r.n_windows for r in results)
        mae = sum(r.mae_bpm * r.n_windows for r in results) / n_windows
        energy = sum(r.mean_watch_energy_j * r.n_windows for r in results) / n_windows
        offload = sum(r.offload_fraction * r.n_windows for r in results) / n_windows
        print(f"  {label:<8} MAE {mae:.2f} BPM, "
              f"watch energy {energy * 1e3:.3f} mJ/prediction, "
              f"{100 * offload:.1f}% offloaded over {n_windows} windows")
    n_revisions = len({system.hardware_revision() for _, system in hardware.values()})
    print(f"{n_revisions} hardware revisions served by one scheduler "
          f"— {len(subjects)} devices\n")

    print("== scheduler drain vs sequential replay (stock sub-fleet) ==")
    timings = {}
    # Each path replays a deep copy of the pristine zoo, so both start
    # from identical predictor streams and the experiment stays unmutated.
    t0 = time.perf_counter()
    sequential = sequential_replay(
        copy.deepcopy(experiment.runtime()), subjects[:60], constraint, use_oracle_difficulty=True
    )
    timings["sequential"] = time.perf_counter() - t0
    print(f"  sequential    {timings['sequential'] * 1e3:7.1f} ms "
          f"(MAE {sequential.mae_bpm:.2f} BPM)")
    t0 = time.perf_counter()
    with FleetScheduler(
        experiment.runtime(), constraint, use_oracle_difficulty=True
    ) as scheduler:
        sessions = [scheduler.submit(s.subject_id, s) for s in subjects[:60]]
        scheduler.join()
    timings["scheduler"] = time.perf_counter() - t0
    mae = sum(s.result.mae_bpm * s.result.n_windows for s in sessions) / sum(
        s.result.n_windows for s in sessions
    )
    print(f"  scheduler     {timings['scheduler'] * 1e3:7.1f} ms "
          f"(MAE {mae:.2f} BPM)")
    print(f"fleet speedup: {timings['sequential'] / timings['scheduler']:.1f}x")


if __name__ == "__main__":
    main()
