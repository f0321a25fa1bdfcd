"""The three workloads: ``replay``, ``serve`` and ``durable``.

Each workload loads a different layer of the engine (see NOTES.md for
why each was chosen and which metric each layer should move):

* ``replay`` -- ``CHRISRuntime.run_many`` over the seeded fleet at
  MAE <= 5.60 BPM; TimePPG-Big forwards dominate.
* ``serve`` -- an open loop of one-window ``push()`` bursts from many
  streams into a drain ``FleetScheduler`` at MAE <= 7.16 BPM; per-window
  RF calls and per-session scheduler/runtime cost dominate.
* ``durable`` -- a journaled ``FleetExecutor`` pass over the replay fleet
  and resumes of a run stopped after half its shards.

Every function returns an :class:`Outcome`: end-to-end metrics from the
untraced passes, per-layer metrics from the traced ones (``trace=True``
runs half the measuring time untraced and half traced, so the tracing
overhead is measured too), output checks and per-phase counts.
"""

from __future__ import annotations

import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.decision_engine import Constraint
from repro.core.fleet import FleetExecutor
from repro.core.runtime import EQUIVALENCE_TOLERANCES, FleetResult, RunResult
from repro.core.scheduler import FleetScheduler, SessionState
from repro.data.dataset import WindowedSubject

import tracing
from pipeline import ble_traces, build_pipeline, synth_fleet, timed_setup

#: Set-ups per run: half before measuring and half after it.  ``setup_s``
#: is their median, so, like the pass medians, it samples the machine over
#: the whole run and not only over its first seconds.
SETUP_REPEATS = 8

#: The paper's two operating points.
REPLAY_CONSTRAINT = Constraint.max_mae(5.60)
SERVE_CONSTRAINT = Constraint.max_mae(7.16)

#: ``durable``: resumes after each first pass, each from a restored copy
#: of a checkpoint directory whose run stopped after half its shards.
RESUMES_PER_PASS = 2

#: ``serve``'s one-recording replay runs in chunks of this many streams;
#: ``resume_windows_per_s`` is the median chunk rate.
REPLAY_CHUNK = 50

#: ``serve`` shape: streams, and the tick period every stream pushes at.
#: A 500-window burst drains in ~0.3-0.45 s on a 2-core box, well within
#: the period, so the loop measures throughput-bound bursts, not a
#: growing backlog.
N_STREAMS = 500
TICK_PERIOD_S = 0.6

#: Run-time output of the benchmark (spans, checkpoint directories),
#: inside the checkout the benchmark runs from.
OUT_DIR = Path(__file__).resolve().parents[1] / ".perfbench-out"

#: Per-window RunResult fields that serving must reproduce exactly.
_EXACT_FIELDS = (
    "predicted_difficulty",
    "true_difficulty",
    "offloaded",
    "true_hr",
    "watch_compute_j",
    "watch_radio_j",
    "watch_idle_j",
    "phone_compute_j",
    "latency_s",
)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    phases: dict[str, dict[str, int]] = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    tracer: tracing.Tracer | None = None

    def phase(self, name: str, sent: int, failed: int) -> None:
        self.phases[name] = {"sent": sent, "succeeded": sent - failed, "failed": failed}

    @property
    def attempted(self) -> int:
        return sum(p["sent"] for p in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(p["failed"] for p in self.phases.values())


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pct(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def _passes(seconds: float, run_pass) -> list:
    """Call ``run_pass(i)`` until ``seconds`` have elapsed (at least once)."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(run_pass(len(results)))
    return results


def _finish_trace(out: Outcome, tracer, passes, walls, untraced_walls, macs, intervals=None):
    """Per-layer metrics, tracing overhead and the 5% sum check."""
    out.layers.update(tracing.layer_metrics(tracer.spans, passes, macs))
    wall = float(sum(walls))
    # Coverage counts the layers beneath the entry point.  ``run_many``'s
    # own code (argument checks, the fleet loop) is in no layer, so on
    # ``replay`` it counts as uncovered, as the executor's code does on
    # ``durable``.
    beneath = [s for s in tracer.spans if s.name != "runtime.run_many"]
    covered = tracing.covered_seconds(beneath, intervals)
    coverage = covered / wall if wall else 0.0
    out.layers["trace.coverage"] = coverage
    # Above 1 when threads overlap, as the pipelined serve bursts do.
    out.layers["trace.self_sum_fraction"] = sum(s.self_s for s in tracer.spans) / wall if wall else 0.0
    out.layers["trace.wall_s"] = wall / max(passes, 1)
    overhead = float(np.median(walls)) - float(np.median(untraced_walls))
    out.layers["trace.overhead_s"] = overhead
    out.layers["trace.overhead_fraction"] = overhead / float(np.median(untraced_walls))
    out.checks["trace sum within 5% of traced wall"] = abs(coverage - 1.0) <= 0.05


def _split(seconds: float, trace: bool) -> tuple[float, float]:
    """Untraced and traced measuring time of one run."""
    return (seconds / 2.0, seconds / 2.0) if trace else (seconds, 0.0)


def _setup_s(build, before: list[float]) -> float:
    """Median set-up time over the set-ups before measuring and as many after.

    Called after ``peak_rss_mb`` is read, so the extra set-ups, which run
    while the workload's data is still alive, do not raise it.
    """
    _, after = timed_setup(build, len(before), keep_last=False)
    return float(np.median(before + after))


def _fleet_equal(got: FleetResult, want: FleetResult) -> bool:
    return got.subject_ids == want.subject_ids and all(
        got.results[sid] == want.results[sid] for sid in want.subject_ids
    )


# --------------------------------------------------------------------- replay
def replay(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    subjects = synth_fleet(seed)
    traces = ble_traces(subjects, seed)
    n_windows = sum(s.n_windows for s in subjects)
    out.sizes = {"subjects": len(subjects), "windows": n_windows, "traced_subjects": len(traces)}

    def build():
        pipeline = build_pipeline()
        return (pipeline, pipeline.runtime()), None

    (pipeline, runtime), setup_times = timed_setup(build, SETUP_REPEATS // 2)

    def run(i: int = 0) -> tuple[float, FleetResult]:
        start = time.perf_counter()
        fleet = runtime.run_many(subjects, REPLAY_CONSTRAINT, connected_traces=traces)
        return time.perf_counter() - start, fleet

    # The warm-up pass fills lazy buffers and cost tables; its result is
    # the reference every later pass and the one-subject replays must equal.
    _, reference = run()
    out.phase("warmup", n_windows, 0)
    for subject in (subjects[0], subjects[1]):
        sid = subject.subject_id
        single = pipeline.runtime().run_many(
            [subject],
            REPLAY_CONSTRAINT,
            connected_traces={sid: traces[sid]} if sid in traces else None,
        )
        kind = "traced" if sid in traces else "untraced"
        out.checks[f"{kind} subject {sid} == one-subject run_many"] = (
            single.results[sid] == reference.results[sid]
        )

    untraced_s, traced_s = _split(seconds, trace)
    timed = _passes(untraced_s, run)
    walls = [wall for wall, _ in timed]
    out.checks["every pass == warm-up pass"] = all(_fleet_equal(f, reference) for _, f in timed)
    out.phase("measure", n_windows * len(timed), 0)

    out.metrics["windows_per_s"] = n_windows / float(np.median(walls))
    # No checkpoint: a restarted replay gets its results back by re-running.
    out.metrics["resume_windows_per_s"] = out.metrics["windows_per_s"]
    per_subject = np.repeat(walls, len(subjects))
    out.metrics["latency_p50_ms"] = 1e3 * _pct(per_subject, 50)
    out.metrics["latency_p99_ms"] = 1e3 * _pct(per_subject, 99)
    out.metrics["mae_bpm"] = reference.mae_bpm
    out.metrics["watch_uj_per_window"] = 1e6 * reference.mean_watch_energy_j
    out.layers["runtime.offload_fraction"] = reference.offload_fraction
    out.sizes["passes"] = len(timed)

    if trace:
        tracer = tracing.Tracer()

        def traced_pass(i: int) -> tuple[float, FleetResult]:
            tracer.request = f"pass{i}"
            return run()

        with tracing.installed(tracer):
            traced = _passes(traced_s, traced_pass)
        out.checks["every traced pass == warm-up pass"] = all(
            _fleet_equal(f, reference) for _, f in traced
        )
        out.phase("traced", n_windows * len(traced), 0)
        _finish_trace(
            out, tracer, len(traced), [w for w, _ in traced], walls, pipeline.conv_macs()
        )
        out.tracer = tracer
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    out.metrics["setup_s"] = _setup_s(build, setup_times)
    return out


# ---------------------------------------------------------------------- serve
def _stream_recordings(subjects, offsets, n_ticks) -> list[WindowedSubject]:
    """Stream ``k``'s windows: subject ``k % S`` from a seeded offset, wrapping."""
    recordings = []
    for k, offset in enumerate(offsets):
        subject = subjects[k % len(subjects)]
        idx = (offset + np.arange(n_ticks)) % subject.n_windows
        recordings.append(
            WindowedSubject(
                subject_id=f"w{k:04d}",
                ppg_windows=subject.ppg_windows[idx],
                accel_windows=subject.accel_windows[idx],
                activity=subject.activity[idx],
                hr=subject.hr[idx],
                spec=subject.spec,
            )
        )
    return recordings


def _run_ticks(scheduler, streams, recordings, ticks, period):
    """Open-loop bursts: at every tick each stream pushes its next window.

    The schedule is fixed up front and never waits for the scheduler: a
    slow burst makes the next tick late (reported), never later-scheduled.
    A tick's windows are all due at the same instant, so the dispatcher
    is held while the one generator thread pushes them and released after
    it: otherwise where the dispatcher splits a tick would depend on
    thread timing.
    Returns ``(due, late, handles)`` per tick; a refused push is ``None``.
    """
    out = []
    base = time.perf_counter() + 0.01
    for i, t in enumerate(ticks):
        due = base + i * period
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
        late = time.perf_counter() - due
        handles = []
        scheduler.pause()
        try:
            for stream, rec in zip(streams, recordings):
                try:
                    handles.append(
                        stream.push(
                            rec.ppg_windows[t],
                            rec.accel_windows[t],
                            activity=int(rec.activity[t]),
                            hr=float(rec.hr[t]),
                        )
                    )
                except (RuntimeError, ValueError):
                    handles.append(None)
        finally:
            scheduler.resume()
        out.append((due, late, handles))
    return out


def _tick_stats(ticks, period):
    """Per-window latency from the scheduled tick, per-tick drain times, misses."""
    latencies, drains, failed, misses = [], [], 0, 0
    for due, _, handles in ticks:
        last = due
        for h in handles:
            if h is None or h.state is not SessionState.DONE:
                failed += 1
                misses += 1
                continue
            latency = h.complete_s - due
            latencies.append(latency)
            misses += latency > period
            last = max(last, h.complete_s)
        drains.append(last - due)
    return latencies, drains, failed, misses


def _served_windows(ticks_list) -> list[list[RunResult]]:
    """Each stream's distinct session results, in push order."""
    n_streams = len(ticks_list[0][2])
    per_stream: list[list] = [[] for _ in range(n_streams)]
    for _, _, handles in ticks_list:
        for k, h in enumerate(handles):
            if h is not None and (not per_stream[k] or per_stream[k][-1] is not h):
                per_stream[k].append(h)
    return [[h.result for h in hs if h.state is SessionState.DONE] for hs in per_stream]


def _concat(results: list[RunResult], name: str) -> np.ndarray:
    return np.concatenate([np.asarray(getattr(r, name)) for r in results])


def serve(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    subjects = synth_fleet(seed)
    # Stream k replays subject k % S from a seeded offset.  Offsets are
    # stratified over the session (one per equal slice), so every tick
    # carries the same activity mix, and with it the same routing mix,
    # whatever the seed.
    rng = np.random.default_rng([seed, 2])
    n_windows = min(s.n_windows for s in subjects)
    per_subject = -(-N_STREAMS // len(subjects))
    stratum = np.arange(N_STREAMS) // len(subjects)
    offsets = ((stratum + rng.random(N_STREAMS)) * n_windows / per_subject).astype(int)
    untraced_s, traced_s = _split(seconds, trace)
    n_untraced = max(1, int(round(untraced_s / TICK_PERIOD_S)))
    n_traced = int(round(traced_s / TICK_PERIOD_S)) if trace else 0
    n_ticks = 1 + n_untraced + n_traced
    recordings = _stream_recordings(subjects, offsets, n_ticks)
    out.sizes = {"streams": N_STREAMS, "tick_period_s": TICK_PERIOD_S, "ticks": n_ticks,
                 "windows": N_STREAMS * n_ticks}

    def build():
        pipeline = build_pipeline()
        scheduler = FleetScheduler(
            pipeline.runtime(),
            SERVE_CONSTRAINT,
            use_oracle_difficulty=False,
            max_streams=N_STREAMS,
            clock=time.perf_counter,
        )
        return (pipeline, scheduler), lambda value: value[1].close()

    (pipeline, scheduler), setup_times = timed_setup(build, SETUP_REPEATS // 2)
    # The output check's reference: each stream's windows replayed as one
    # recording.  The serving scheduler keeps no checkpoint, so this is
    # also how a restarted server would recover the streams' results.
    # Half the chunks run before serving and half after it, so the median
    # chunk rate samples the machine at both ends of the run.
    replay_runtime = pipeline.runtime()
    replayed: dict[str, RunResult] = {}
    rates = []

    def replay_chunks(first: int, stop: int) -> None:
        for i in range(first, stop, REPLAY_CHUNK):
            chunk = recordings[i : i + REPLAY_CHUNK]
            start = time.perf_counter()
            replayed.update(replay_runtime.run_many(chunk, SERVE_CONSTRAINT).results)
            rates.append(len(chunk) * n_ticks / (time.perf_counter() - start))

    replay_chunks(0, N_STREAMS // 2)
    try:
        streams = [scheduler.open_stream(rec.subject_id) for rec in recordings]
        warm = _run_ticks(scheduler, streams, recordings, [0], TICK_PERIOD_S)
        scheduler.join()
        measured = _run_ticks(
            scheduler, streams, recordings, range(1, 1 + n_untraced), TICK_PERIOD_S
        )
        scheduler.join()
        traced_ticks = []
        if trace:
            tracer = tracing.Tracer()
            before = scheduler.latency_stats()
            with tracing.installed(tracer):
                traced_ticks = _run_ticks(
                    scheduler, streams, recordings, range(1 + n_untraced, n_ticks), TICK_PERIOD_S
                )
                scheduler.join()
            after = scheduler.latency_stats()
        for stream in streams:
            stream.close()
    finally:
        scheduler.close()
    replay_chunks(N_STREAMS // 2, N_STREAMS)
    out.metrics["resume_windows_per_s"] = float(np.median(rates))
    out.phase("one-recording replay", N_STREAMS * n_ticks, 0)

    latencies, drains, failed, misses = _tick_stats(measured, TICK_PERIOD_S)
    out.phase("warmup", N_STREAMS, _tick_stats(warm, TICK_PERIOD_S)[2])
    out.phase("measure", N_STREAMS * len(measured), failed)
    out.metrics["windows_per_s"] = N_STREAMS / float(np.median(drains))
    out.metrics["latency_p50_ms"] = 1e3 * _pct(latencies, 50)
    out.metrics["latency_p99_ms"] = 1e3 * _pct(latencies, 99)
    out.layers["serve.slo_miss_fraction"] = misses / (N_STREAMS * len(measured))
    late = [late for _, late, _ in measured]
    out.notes.append(
        f"open loop: {len(measured)} ticks of {N_STREAMS} pushes every {TICK_PERIOD_S} s; "
        f"generator late p99 {1e3 * _pct(late, 99):.3f} ms; "
        f"SLO (one period) misses {misses} of {N_STREAMS * len(measured)}"
    )

    # Output check: each stream equals its one-recording replay.
    served = _served_windows(warm + measured + traced_ticks)
    atol, rtol = EQUIVALENCE_TOLERANCES["float64"]
    exact = close = True
    abs_err, watch_j, offloaded, n_served = 0.0, 0.0, 0, 0
    for rec, results in zip(recordings, served):
        want = replayed[rec.subject_id]
        if sum(r.n_windows for r in results) != want.n_windows:
            exact = False
            continue
        exact &= all(np.array_equal(_concat(results, f), getattr(want, f)) for f in _EXACT_FIELDS)
        exact &= bool(np.all(_concat(results, "model_names") == want.model_names))
        predicted = _concat(results, "predicted_hr")
        close &= bool(np.allclose(predicted, want.predicted_hr, atol=atol, rtol=rtol))
        abs_err += float(np.abs(predicted - want.true_hr).sum())
        watch_j += float(_concat(results, "watch_total_j_per_window").sum())
        offloaded += int(_concat(results, "offloaded").sum())
        n_served += want.n_windows
    out.checks["routing and costs == one-recording replay (exact)"] = exact
    out.checks["predictions == one-recording replay (float64 tolerance)"] = close
    out.metrics["mae_bpm"] = abs_err / n_served
    out.metrics["watch_uj_per_window"] = 1e6 * watch_j / n_served
    out.layers["runtime.offload_fraction"] = offloaded / n_served

    if trace:
        _, t_drains, t_failed, _ = _tick_stats(traced_ticks, TICK_PERIOD_S)
        out.phase("traced", N_STREAMS * len(traced_ticks), t_failed)
        sessions = {id(h): h for _, _, hs in traced_ticks for h in hs if h is not None}.values()
        waits = [h.dispatch_s - a for h in sessions if h.dispatch_s is not None for a in h.arrivals_s]
        execs = [h.complete_s - h.dispatch_s for h in sessions if h.complete_s is not None]
        out.layers["scheduler.queue_wait_p50_ms"] = 1e3 * _pct(waits, 50)
        out.layers["scheduler.queue_wait_p99_ms"] = 1e3 * _pct(waits, 99)
        out.layers["scheduler.exec_p50_ms"] = 1e3 * _pct(execs, 50)
        batches = after["n_batches"] - before["n_batches"]
        windows = (
            after["mean_batch_windows"] * after["n_batches"]
            - before["mean_batch_windows"] * before["n_batches"]
        )
        out.layers["scheduler.batches"] = batches / len(traced_ticks)
        out.layers["scheduler.batch_windows_mean"] = windows / batches if batches else 0.0
        out.layers["serve.generator_late_p99_ms"] = 1e3 * _pct([l for _, l, _ in traced_ticks], 99)
        intervals = [(due, due + d) for (due, _, _), d in zip(traced_ticks, t_drains)]
        _finish_trace(out, tracer, len(traced_ticks), t_drains, drains, pipeline.conv_macs(), intervals)
        out.tracer = tracer
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    out.metrics["setup_s"] = _setup_s(build, setup_times)
    return out


# -------------------------------------------------------------------- durable
def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def durable(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    subjects = synth_fleet(seed)
    traces = ble_traces(subjects, seed)
    windows_of = {s.subject_id: s.n_windows for s in subjects}
    n_windows = sum(windows_of.values())
    checkpoint_dir = OUT_DIR / f"checkpoint-{seed}"
    interrupted_dir = OUT_DIR / f"interrupted-{seed}"
    # max_workers=1: the journaled in-process path.  The pooled default
    # (os.cpu_count() workers) does not repeat on a 2-core box; NOTES.md
    # records the measurements.
    out.sizes = {"subjects": len(subjects), "windows": n_windows,
                 "traced_subjects": len(traces), "max_workers": 1}

    def build():
        pipeline = build_pipeline()
        executor = FleetExecutor(pipeline.runtime(), max_workers=1, checkpoint_dir=checkpoint_dir)
        return (pipeline, executor), None

    (pipeline, executor), setup_times = timed_setup(build, SETUP_REPEATS // 2)
    # The in-process reference doubles as the warm-up.
    reference = pipeline.runtime().run_many(subjects, REPLAY_CONSTRAINT, connected_traces=traces)
    out.phase("warmup (run_many reference)", n_windows, 0)

    def interrupt() -> int:
        """Stop a first pass after half its shards; keep its directory.

        Every resume restarts from a copy of that directory, as a process
        restarted after a crash halfway would: it loads and verifies the
        staged half and executes the rest.  Returns the windows it ran.
        """
        bounds = executor.shard_bounds(len(subjects))
        stop = bounds[len(bounds) // 2][0]
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
        runs = executor.iter_runs(subjects, REPLAY_CONSTRAINT, connected_traces=traces)
        done = []
        for sid, _ in runs:
            done.append(sid)
            if len(done) == stop:
                break
        runs.close()
        shutil.rmtree(interrupted_dir, ignore_errors=True)
        shutil.copytree(checkpoint_dir, interrupted_dir)
        return sum(windows_of[sid] for sid in done)

    def run_pass(tag: str, tracer=None) -> dict:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
        if tracer is not None:
            tracer.request = f"{tag}/first"
        failures: dict[str, str] = {}
        arrived: dict[str, float] = {}
        results: dict[str, RunResult] = {}
        start = time.perf_counter()
        for sid, result in executor.iter_runs(
            subjects, REPLAY_CONSTRAINT, connected_traces=traces, failures=failures
        ):
            arrived[sid] = time.perf_counter() - start
            results[sid] = result
        first_s = time.perf_counter() - start
        staged = _dir_bytes(checkpoint_dir)
        equal = set(results) == set(reference.subject_ids) and all(
            results[sid] == reference.results[sid] for sid in reference.subject_ids
        )
        if tracer is not None:
            tracer.request = f"{tag}/resume"
        resume_s, resume_failed = [], []
        for _ in range(RESUMES_PER_PASS):
            shutil.rmtree(checkpoint_dir)
            shutil.copytree(interrupted_dir, checkpoint_dir)
            start = time.perf_counter()
            resumed = executor.run_fleet(subjects, REPLAY_CONSTRAINT, connected_traces=traces)
            resume_s.append(time.perf_counter() - start)
            resume_failed += resumed.failed_subject_ids
            equal = equal and _fleet_equal(resumed, reference)
        return {
            "first_s": first_s,
            "resume_s": resume_s,
            "arrived": arrived,
            "failed": len(failures) + len(resume_failed),
            "first_failed_windows": sum(windows_of[sid] for sid in failures),
            "resume_failed_windows": sum(windows_of[sid] for sid in resume_failed),
            "equal": equal,
            "bytes": staged,
        }

    untraced_s, traced_s = _split(seconds, trace)
    try:
        out.phase("interrupted first pass", interrupt(), 0)
        timed = _passes(untraced_s, lambda i: run_pass(f"pass{i}"))
        out.checks["first pass and resume == run_many (every pass)"] = all(p["equal"] for p in timed)
        out.phase("first pass", n_windows * len(timed), sum(p["first_failed_windows"] for p in timed))
        out.phase(
            "resume",
            RESUMES_PER_PASS * n_windows * len(timed),
            sum(p["resume_failed_windows"] for p in timed),
        )
        first = [p["first_s"] for p in timed]
        out.metrics["windows_per_s"] = n_windows / float(np.median(first))
        resumes = [t for p in timed for t in p["resume_s"]]
        out.metrics["resume_windows_per_s"] = n_windows / float(np.median(resumes))
        arrivals = [t for p in timed for t in p["arrived"].values()]
        out.metrics["latency_p50_ms"] = 1e3 * _pct(arrivals, 50)
        out.metrics["latency_p99_ms"] = 1e3 * _pct(arrivals, 99)
        out.metrics["mae_bpm"] = reference.mae_bpm
        out.metrics["watch_uj_per_window"] = 1e6 * reference.mean_watch_energy_j
        out.layers["runtime.offload_fraction"] = reference.offload_fraction
        out.sizes["passes"] = len(timed)

        if trace:
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced = _passes(traced_s, lambda i: run_pass(f"pass{i}", tracer))
            out.checks["traced first pass and resume == run_many"] = all(p["equal"] for p in traced)
            out.phase(
                "traced",
                (1 + RESUMES_PER_PASS) * n_windows * len(traced),
                sum(p["first_failed_windows"] + p["resume_failed_windows"] for p in traced),
            )
            _finish_trace(
                out, tracer, len(traced),
                [p["first_s"] + sum(p["resume_s"]) for p in traced],
                [p["first_s"] + sum(p["resume_s"]) for p in timed],
                pipeline.conv_macs(),
            )
            per = 1.0 / len(traced)
            spans = tracer.spans
            first_spans = [s for s in spans if s.request.endswith("/first")]
            parent_side = sum(
                s.duration for s in first_spans if s.parent is None and s.name != "fleet.shard"
            )
            out.layers["fleet.first_result_s"] = float(np.median([min(p["arrived"].values()) for p in traced]))
            out.layers["fleet.shards"] = sum(1 for s in spans if s.name == "fleet.shard") * per
            out.layers["fleet.pool_s"] = (sum(p["first_s"] for p in traced) - parent_side) * per
            out.layers["fleet.failed_subjects"] = sum(p["failed"] for p in traced) * per
            out.layers["checkpoint.stage_s"] = sum(s.duration for s in spans if s.name == "checkpoint.stage") * per
            out.layers["checkpoint.load_s"] = sum(s.duration for s in spans if s.name == "checkpoint.load") * per
            out.layers["checkpoint.journal_marks"] = sum(1 for s in spans if s.name == "checkpoint.mark") * per
            out.layers["checkpoint.bytes"] = float(np.median([p["bytes"] for p in traced]))
            out.tracer = tracer
    finally:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
        shutil.rmtree(interrupted_dir, ignore_errors=True)
    out.notes.append(
        "durable runs FleetExecutor(max_workers=1), the journaled in-process path, "
        "so every span is recorded in this process; each resume restarts a run "
        "stopped after half its shards, from a copy of its checkpoint directory"
    )
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    out.metrics["setup_s"] = _setup_s(build, setup_times)
    return out
