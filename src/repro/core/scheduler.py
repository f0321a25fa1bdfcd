"""Online fleet scheduler for dynamically arriving/leaving sessions.

:class:`FleetScheduler` generalizes the fixed-subject-list fleet engine
(:meth:`repro.core.runtime.CHRISRuntime.run_many`,
:class:`repro.core.fleet.FleetExecutor`) to an *online* service: sessions
are :meth:`~FleetScheduler.submit`-ted at any time, may be
:meth:`~FleetScheduler.retire`-d while still queued, and completed
:class:`RunResult`\\ s stream back through the
:meth:`~FleetScheduler.as_completed` generator as they finish — there is
no fixed subject list.  Each session can bring its own
:class:`~repro.hw.platform.WearableSystem`, so one scheduler serves a
heterogeneous device population; each batch computes its per-revision
costs in the runtime's per-call cost table, so threads share no cost state.

Execution model
---------------
Every session belongs to a *stream* that owns one slot of the
scheduler's continuation state (one stacked
:class:`~repro.models.base.FleetState` per stateful predictor).
:meth:`~FleetScheduler.submit` makes a stream that enqueues its
recording and closes; :meth:`~FleetScheduler.open_stream` keeps one
open for pushes.  A closed stream's slot is freed — the per-subject
``reset()`` boundary of sequential replay — once its last session
resolved.

A dispatcher thread drains the arrival queue into *batches*: every
session waiting when the dispatcher wakes (bounded by
``max_batch_size``) is planned on the dispatcher as one columnar plan
(:meth:`~repro.core.runtime.CHRISRuntime._plan_fleet`) and handed to
one worker thread that executes it as one cross-subject mega-batch
(:meth:`~repro.core.runtime.CHRISRuntime._run_many_planned`), so the
next batch is planned while the current one executes.  The stream
position advances by the plan's per-model window counts
(:meth:`~repro.core.runtime.CHRISRuntime.model_window_counts`).  Process
parallelism belongs to :class:`~repro.core.fleet.FleetExecutor`; the
scheduler executes its batches one at a time, in dispatch order.  Only
the scheduler knows the slot layout: each attempt gathers the batch's
slots into batch-positional copies for the runtime, and a successful
one scatters them back before any of its sessions resolves.  Under
load, arrivals therefore coalesce into large fused ``predict`` calls —
the same amortization that makes mega-batched ``run_many`` several times
faster than per-subject replay — while a lightly loaded scheduler
degenerates to one small batch per arrival with minimal latency.

Serving policies and latency
----------------------------
The dispatcher knows two batching policies.  ``policy="drain"`` (the
default, the historical behaviour) releases a batch the moment anything
is waiting.  ``policy="deadline"`` batches *as late as the deadline
allows*: every arrival carries a timestamp and an SLO budget
(per-session ``slo_s`` or the scheduler-wide default), and the
dispatcher holds the queue until either the batch is full
(``max_batch_size`` sessions) or the oldest queued window is within
``deadline_slack_s`` of its deadline — maximizing fusion under an
explicit latency bound instead of dispatch eagerness.  ``close()``
always drains immediately, pause/resume hold and release the buffer
unchanged, and per-session ordering is preserved (batches are still
submission-order prefixes of the queue), so both policies satisfy the
same equivalence contract below.  Every arrival is stamped
(enqueue → dispatch → complete, via an injectable monotonic ``clock`` —
:class:`VirtualClock` makes tests and benchmarks deterministic) and
:meth:`FleetScheduler.latency_stats` aggregates p50/p95/p99 latency,
deadline-miss fraction and batch-size statistics off the hot path.

Streaming dispatch
------------------
:meth:`FleetScheduler.open_stream` turns the scheduler into a true
online server: :meth:`StreamSession.push` submits *single arriving
windows* that execute through ``predict_fleet`` continuations — the
stream's slot carries the tracker state across batches, so nothing ever
replays a whole session.  Pushes that are still queued coalesce in
place (one growing window batch per stream), which keeps at most one
queued session per stream — so a batch never holds one slot twice —
and lets the deadline policy fuse an entire SLO window's worth of
arrivals into one mega-batch.  A coalesced push appends one row to the
stream's buffer, which doubles its capacity when full, and the
session's recording views the rows it holds, so ``k`` pushes cost
O(k), not the O(k²) of re-concatenating the queued session.

Admission
---------
Inputs are validated once, when they are admitted, so a bad input
raises to its caller and never reaches a batch.  Besides per-session
checks (empty recordings, trace shape, one window per push), the
scheduler records the PPG and accelerometer window shapes of the first
recording or window it admits; :meth:`FleetScheduler.submit` and
:meth:`StreamSession.push` reject any later input of another geometry,
which the fused ``np.concatenate`` of a batch could not stack.

Equivalence contract
--------------------
The scheduler is **decision-for-decision identical to sequential
replay**: collecting every completed session's result reproduces exactly
``runtime.run_many(subjects, constraint)`` over the completed sessions
in submission order, no matter how arrivals were batched, at the
runtime's dtype.  Arrival coalescing changes the batch shapes of fused
stateless models such as TimePPG; their forwards are row-bit-stable
(:mod:`repro.core.runtime`, *Equivalence contract*), so no prediction
bit moves.  Batches are planned in submission order and executed
in dispatch order on the scheduler's private stream runtime, so
execution itself advances the predictor streams exactly like sequential
replay.

Sessions retired while still queued are never planned and never advance
any predictor stream — the contract holds over the sessions that
actually ran.

Fault tolerance: degrade, don't die
-----------------------------------
A batch that fails during execution is retried with the capped
exponential backoff of :func:`repro.core.faults.backoff_delay`
(``max_retries`` / ``retry_backoff_s``); a batch that exhausts
its retries is **quarantined** — its sessions resolve ``FAILED`` with
the error attached while the scheduler keeps serving every other
session.  Stream accounting is *as-if-planned*: the scheduler's
predictor streams advance by each dispatched batch's planned window
counts whether or not the batch ultimately succeeds, so batches planned
after a quarantined one replay exactly as they would have had it
succeeded — one bad recording cannot invalidate its neighbours.  (The
flip side: after a quarantine, later sessions match sequential replay
over *all dispatched* sessions, not over the successful subset.)

A failed attempt leaves the stream runtime partway through its batch,
so its zoo is rebuilt from the construction-time zoo snapshot,
fast-forwarded to the batch's planned start position for a retry and to
the as-if-planned position after the batch once retries are exhausted —
cross-run predictor state is a pure function of cumulative windows
consumed (see :meth:`~repro.models.base.HeartRatePredictor.advance_fleet_state`),
so a rebuilt attempt is bit-identical to a first attempt; a failed
attempt advanced only its own copy of the continuation slots.  Only when
that rebuild *itself* fails (a zoo that cannot be copied or
fast-forwarded) does the scheduler poison itself: queued sessions fail
and further submissions raise, because stream positions can no longer be
reconstructed.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, Mapping

import numpy as np

import repro.core.faults as faults
from repro.core.decision_engine import Constraint
from repro.core.runtime import CHRISRuntime, RunResult
from repro.data.dataset import DEFAULT_WINDOW_SPEC, WindowedSubject, WindowSpec
from repro.hw.platform import WearableSystem
from repro.models.base import FleetState

#: Re-poll cadence of a deadline-policy dispatcher holding a batch back.
#: ``Condition.wait`` sleeps in *wall* time while deadlines live in
#: ``clock`` time; a :class:`VirtualClock` advances without notifying the
#: dispatcher, so the hold re-checks the (possibly virtual) deadline at
#: least this often.
_DEADLINE_POLL_S = 0.05


class SessionState(Enum):
    """Lifecycle of one scheduled session."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    RETIRED = "retired"


@dataclass(eq=False)
class FleetSession:
    """Handle for one queued batch of a :attr:`stream`'s windows.

    Returned by :meth:`FleetScheduler.submit` and
    :meth:`StreamSession.push`.  The scheduler mutates :attr:`state`,
    :attr:`result` and :attr:`error`; consumers read them after the
    session is yielded by :meth:`FleetScheduler.as_completed` (or after
    :meth:`FleetScheduler.join`).

    Latency bookkeeping: :attr:`arrivals_s` holds one ``clock()`` stamp
    per *arrival event* — a submitted recording is one event, every
    push coalesced into the session adds one — and
    :attr:`dispatch_s`/:attr:`complete_s` record when the session left
    the queue and resolved.  Hardware, SLO budget and state slot are the
    :attr:`stream`'s.
    """

    subject_id: str
    recording: WindowedSubject
    stream: "StreamSession" = field(repr=False)
    connected_trace: np.ndarray | None = None
    ticket: int = 0
    state: SessionState = SessionState.QUEUED
    result: RunResult | None = field(default=None, repr=False)
    error: BaseException | None = field(default=None, repr=False)
    arrivals_s: list[float] = field(default_factory=list, repr=False)
    dispatch_s: float | None = field(default=None, repr=False)
    complete_s: float | None = field(default=None, repr=False)

    @property
    def done(self) -> bool:
        """Whether the session reached a terminal state."""
        return self.state in (SessionState.DONE, SessionState.FAILED, SessionState.RETIRED)


def _grown(rows: np.ndarray, capacity: int) -> np.ndarray:
    """``rows`` copied into a fresh array of ``capacity`` rows."""
    grown = np.empty((capacity,) + rows.shape[1:], dtype=rows.dtype)
    grown[: rows.shape[0]] = rows
    return grown


class VirtualClock:
    """Deterministic manual time source for latency tests and benchmarks.

    Drop-in for ``time.monotonic``: calling the instance returns the
    current virtual time, and :meth:`sleep` — the drop-in for
    ``time.sleep`` — advances it instantly, so a paced arrival schedule
    replays in microseconds of wall time with bit-identical timestamps
    run after run (the same ``Date``-free determinism the fault harness
    gets from seeded triggers).  Thread-safe: the benchmark's submitter
    advances the clock while the dispatcher and workers read it.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._lock = threading.Lock()  # lock-order: _lock
        self._now = float(start)  # guarded-by: _lock

    def __call__(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, duration_s: float) -> None:
        """Advance the clock by ``duration_s`` without blocking."""
        if duration_s < 0:
            raise ValueError(f"cannot sleep a negative duration ({duration_s})")
        with self._lock:
            self._now += float(duration_s)


class StreamSession:
    """One serving stream (see :meth:`FleetScheduler.open_stream`).

    Holds the stream's identity, hardware, SLO budget, state slot and
    coalescing cursor; all mutable fields are touched under the owning
    scheduler's lock.  :meth:`push` submits one arriving window;
    :meth:`close` retires the stream and recycles its state slot once
    every pushed window has resolved.
    """

    def __init__(
        self,
        scheduler: "FleetScheduler",
        stream_id: str,
        slot: int,
        spec: WindowSpec,
        system: WearableSystem | None,
        slo_s: float | None,
    ) -> None:
        self.stream_id = stream_id
        self.slot = slot
        self.spec = spec
        self.system = system
        self.slo_s = slo_s
        self._scheduler = scheduler
        self._open = True
        #: The stream's queued (still coalescible) session, if any.
        self._live: FleetSession | None = None
        #: ``(ppg, accel, activity, hr)`` rows the live session's recording
        #: views the first rows of; coalesced pushes append here and double
        #: the capacity when it is full.
        self._buffer: tuple[np.ndarray, ...] = ()
        #: Sessions pushed but not yet resolved (slot recycling gate).
        self._unresolved = 0
        self._pushes = itertools.count()

    def push(
        self,
        ppg_window: np.ndarray,
        accel_window: np.ndarray | None = None,
        activity: int = 0,
        hr: float = float("nan"),
    ) -> FleetSession:
        """Submit one arriving PPG window; returns its session handle.

        The window is stamped with the scheduler clock and dispatched
        through the stream's ``predict_fleet`` continuation — consecutive
        pushes that are still queued coalesce into one growing session
        (the returned handle is then the shared one), so under load a
        whole SLO window's worth of arrivals fuses into a single batch.
        """
        return self._scheduler._push_window(self, ppg_window, accel_window, activity, hr)

    def close(self) -> None:
        """Close the stream (idempotent).

        Further pushes raise; the long-lived state slot is freed — the
        per-subject ``reset()`` boundary of sequential replay — and
        recycled once every already-pushed window has resolved.
        """
        self._scheduler._close_stream(self)


class FleetScheduler:
    """Dynamic-session fleet scheduler over one CHRIS runtime.

    Parameters
    ----------
    runtime:
        The CHRIS runtime to serve; the scheduler works on a private deep
        copy, so the caller's runtime (and its predictor streams) is
        never mutated.
    constraint:
        Operating constraint shared by every session — the same role it
        plays in :meth:`~repro.core.runtime.CHRISRuntime.run_many`, whose
        sequential replay the scheduler reproduces bit-identically.
    max_batch_size:
        Upper bound on sessions fused into one mega-batch; ``None``
        (default) fuses everything waiting at dispatch time.
    use_oracle_difficulty:
        Whether planning uses ground-truth difficulty instead of the
        runtime's activity classifier.
    max_retries:
        How many times a failing batch is re-executed before its sessions
        are quarantined as ``FAILED``.  ``0`` fails a batch on its first
        error.
    retry_backoff_s:
        Base of the capped exponential backoff between retries of one
        batch (:func:`repro.core.faults.backoff_delay`).
    policy:
        Batching policy: ``"drain"`` releases a batch the moment anything
        is waiting (the historical behaviour); ``"deadline"`` holds the
        queue until it is full or the oldest window nears its deadline —
        see *Serving policies and latency* in the module docstring.
    slo_s:
        Scheduler-wide deadline budget (seconds from a window's arrival
        to its completion); sessions/streams may override it.  The paper
        serves one window every ~2 s per wearer, hence the default.
    deadline_slack_s:
        How long before the oldest deadline the dispatcher releases a
        held batch — the headroom left for planning and execution.
    max_streams:
        How many :meth:`open_stream` streams may be open at once.  It
        also sizes the initial continuation state, which grows when
        submitted recordings need more slots; ``submit`` has no cap.
    clock:
        Monotonic time source for arrival stamps and deadlines; defaults
        to ``time.monotonic``.  Inject a :class:`VirtualClock` for
        deterministic latency tests and benchmarks.

    Use as a context manager (or call :meth:`close`) so the dispatcher
    and worker threads are torn down deterministically.
    """

    def __init__(
        self,
        runtime: CHRISRuntime,
        constraint: Constraint,
        max_batch_size: int | None = None,
        use_oracle_difficulty: bool = False,
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
        policy: str = "drain",
        slo_s: float = 2.0,
        deadline_slack_s: float = 0.25,
        max_streams: int = 64,
        clock: "Callable[[], float] | None" = None,
    ) -> None:
        if max_batch_size is not None and max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff_s < 0:
            raise ValueError(f"retry_backoff_s must be >= 0, got {retry_backoff_s}")
        if policy not in ("drain", "deadline"):
            raise ValueError(f"policy must be 'drain' or 'deadline', got {policy!r}")
        if slo_s <= 0:
            raise ValueError(f"slo_s must be > 0, got {slo_s}")
        if deadline_slack_s < 0:
            raise ValueError(f"deadline_slack_s must be >= 0, got {deadline_slack_s}")
        if max_streams < 1:
            raise ValueError(f"max_streams must be >= 1, got {max_streams}")
        self.constraint = constraint
        self.max_batch_size = max_batch_size
        self.use_oracle_difficulty = use_oracle_difficulty
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.policy = policy
        self.slo_s = slo_s
        self.deadline_slack_s = deadline_slack_s
        self.max_streams = max_streams
        #: Monotonic time source; set once here, read-only afterwards.
        self._clock = clock if clock is not None else time.monotonic
        #: Stream runtime: plans batches in submission order and executes
        #: them in dispatch order; after every executed batch it holds the
        #: predictor state sequential replay would have.
        self._runtime = copy.deepcopy(runtime)
        #: Construction-time zoo snapshot plus cumulative per-model window
        #: totals of every batch planned so far.  Together they let the
        #: scheduler *rebuild* any stream position (retry attempts, the
        #: restore after a mid-execution failure): predictor state is a
        #: pure function of cumulative windows consumed.  ``_stream_totals``
        #: is touched only by the dispatcher thread; the worker receives
        #: immutable per-batch copies.
        self._pristine_zoo = copy.deepcopy(self._runtime.zoo)
        self._stream_totals: dict[str, int] = {}
        self._tickets = itertools.count()
        # ``_arrivals`` and ``_resolved`` are Conditions built around
        # ``_lock``: entering any of the three holds the same mutex, so
        # the guarded-by pragmas below list all three as aliases.
        self._lock = threading.Lock()  # lock-order: _lock
        self._arrivals = threading.Condition(self._lock)
        self._resolved = threading.Condition(self._lock)
        self._pending: deque[FleetSession] = deque()  # guarded-by: _lock, _arrivals, _resolved
        self._active_ids: set[str] = set()  # guarded-by: _lock, _arrivals, _resolved
        self._unresolved = 0  # guarded-by: _lock, _arrivals, _resolved
        self._closed = False  # guarded-by: _lock, _arrivals, _resolved
        self._paused = False  # guarded-by: _lock, _arrivals, _resolved
        #: Last-resort poisoning flag: set only when a stream position can
        #: no longer be *rebuilt* (the pristine zoo fails to copy or
        #: fast-forward).  Ordinary batch failures never set it — they
        #: retry and then quarantine (see the module docstring).
        self._corrupted = False  # guarded-by: _lock, _arrivals, _resolved
        #: ``(ppg, accel)`` per-window shapes of the first admitted input;
        #: every later recording or pushed window must match them.
        self._window_shapes: tuple | None = None  # guarded-by: _lock, _arrivals, _resolved
        # ----------------------------------------- serving / latency state
        #: Open streams by id, the freelist of state slots, and the next
        #: slot id to hand out once the freelist is empty.
        self._streams: dict[str, StreamSession] = {}  # guarded-by: _lock, _arrivals, _resolved
        self._free_slots = list(range(max_streams - 1, -1, -1))  # guarded-by: _lock, _arrivals, _resolved
        self._new_slots = itertools.count(max_streams)
        #: Long-lived continuation state of every stateful predictor, one
        #: slot per stream (``_take_slot_locked`` grows it).  The worker
        #: gathers a batch's slots and scatters them back under the lock
        #: and runs the batch on its own copies in between.
        self._fleet_states: dict[str, FleetState] = {  # guarded-by: _lock, _arrivals, _resolved
            entry.name: entry.predictor.make_fleet_state(max_streams)
            for entry in self._runtime.zoo
            if not entry.predictor.FLEET_BATCHABLE
        }
        #: Latency samples (one per arrival event): enqueue→dispatch and
        #: enqueue→complete, plus deadline misses and per-batch window
        #: counts.  Appended under the lock at dispatch/resolve time —
        #: bookkeeping stays off the execution hot path — and aggregated
        #: lazily by :meth:`latency_stats`.
        self._dispatch_latencies: list[float] = []  # guarded-by: _lock, _arrivals, _resolved
        self._complete_latencies: list[float] = []  # guarded-by: _lock, _arrivals, _resolved
        self._deadline_misses = 0  # guarded-by: _lock, _arrivals, _resolved
        self._batch_windows: list[int] = []  # guarded-by: _lock, _arrivals, _resolved
        #: Resolved sessions not yet taken by next_done()/as_completed().
        self._done: deque[FleetSession] = deque()  # guarded-by: _lock, _arrivals, _resolved
        #: The one worker thread executing dispatched batches in order.
        self._pool = ThreadPoolExecutor(  # lifecycle-ok: owned by the scheduler, shut down in close()
            1, thread_name_prefix="fleet-worker"
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="fleet-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------ submission
    def submit(
        self,
        subject_id: str,
        recording: WindowedSubject,
        system: WearableSystem | None = None,
        connected_trace: np.ndarray | None = None,
        slo_s: float | None = None,
    ) -> FleetSession:
        """Enqueue one recording; returns its session handle immediately.

        The recording is the one session of a new stream that closes at
        once, so it starts from fresh tracker state.  ``system`` attaches the subject's own hardware (heterogeneous
        fleets); ``connected_trace`` replays the session through the
        BLE-trace path; ``slo_s`` overrides the scheduler-wide deadline
        budget for this session.  A subject id may be resubmitted once
        its previous session resolved; two live sessions with one id are
        rejected (their results would be indistinguishable).  The session
        id is authoritative: a recording carrying a different
        ``subject_id`` is relabeled, so one recording can back several
        session ids.  A recording whose window geometry differs from the
        scheduler's (see *Admission* in the module docstring) raises
        ``ValueError`` and is not enqueued.
        """
        if slo_s is not None and slo_s <= 0:
            raise ValueError(f"slo_s must be > 0, got {slo_s}")
        if recording.n_windows == 0:
            raise ValueError(
                f"session {subject_id!r}: the recording contains no windows"
            )
        if recording.subject_id != subject_id:
            recording = dataclasses.replace(recording, subject_id=subject_id)
        if connected_trace is not None:
            connected_trace = np.asarray(connected_trace, dtype=bool)
            if connected_trace.shape != (recording.n_windows,):
                raise ValueError(
                    f"connected_trace must have one entry per window "
                    f"({recording.n_windows}), got shape {connected_trace.shape}"
                )
        with self._lock:
            if subject_id in self._active_ids:
                raise ValueError(f"session for subject {subject_id!r} is already live")
            self._admit_locked(
                recording.ppg_windows.shape[1:], recording.accel_windows.shape[1:]
            )
            stream = StreamSession(
                self, subject_id, self._take_slot_locked(), recording.spec, system, slo_s
            )
            session = self._enqueue_locked(stream, subject_id, recording, connected_trace)
            # Never registered, so close() cannot touch an open stream of
            # the same id; the slot recycles when the session resolves.
            stream._open = False
        return session

    def retire(self, session: FleetSession) -> bool:
        """Withdraw a session that has not been dispatched yet.

        Returns ``True`` when the session was still queued (it is removed
        without ever touching predictor state) and ``False`` when it
        already started or finished — an online fleet cannot un-run a
        device.
        """
        with self._lock:
            if session.state is not SessionState.QUEUED or session not in self._pending:
                return False
            self._pending.remove(session)
            session.state = SessionState.RETIRED
            self._resolve_locked(session, deliver=False)
            self._resolved.notify_all()
        return True

    # -------------------------------------------------------------- streaming
    def open_stream(
        self,
        stream_id: str,
        system: WearableSystem | None = None,
        slo_s: float | None = None,
        spec: WindowSpec | None = None,
    ) -> StreamSession:
        """Open a per-window serving stream backed by a long-lived state slot.

        The returned :class:`StreamSession` accepts single arriving
        windows (:meth:`StreamSession.push`) that dispatch through
        ``predict_fleet`` continuations: each stateful model keeps one
        state slot per open stream, so a wearer's tracker state survives
        across batches without replaying whole sessions.  ``slo_s``
        overrides the scheduler deadline budget for this stream's
        windows; ``spec`` labels the stream's windows (defaults to the
        corpus-wide :data:`~repro.data.dataset.DEFAULT_WINDOW_SPEC`).
        """
        with self._lock:
            self._admit_locked()
            if stream_id in self._streams:
                raise ValueError(f"stream {stream_id!r} is already open")
            if len(self._streams) >= self.max_streams:
                raise RuntimeError(
                    f"all {self.max_streams} streams are open "
                    f"(close a stream or raise max_streams)"
                )
            stream = StreamSession(
                self,
                stream_id,
                self._take_slot_locked(),
                spec if spec is not None else DEFAULT_WINDOW_SPEC,
                system,
                slo_s,
            )
            self._streams[stream_id] = stream
        return stream

    def _push_window(
        self,
        stream: StreamSession,
        ppg_window: np.ndarray,
        accel_window: np.ndarray | None,
        activity: int,
        hr: float,
    ) -> FleetSession:
        """Enqueue one arriving window of a stream (see :meth:`StreamSession.push`)."""
        ppg = np.atleast_2d(np.asarray(ppg_window, dtype=float))
        if ppg.shape[0] != 1:
            raise ValueError(
                f"push() takes one window at a time, got {ppg.shape[0]} "
                f"(shape {ppg.shape})"
            )
        if accel_window is None:
            accel = np.zeros(ppg.shape + (3,))
        else:
            accel = np.asarray(accel_window, dtype=float)
            if accel.ndim == 2:
                accel = accel[None, ...]
            if accel.shape != ppg.shape + (3,):
                raise ValueError(
                    f"accel window shape {accel.shape} does not match "
                    f"PPG window shape {ppg.shape} (expected "
                    f"{ppg.shape + (3,)})"
                )
        activity_arr = np.asarray([activity], dtype=int)
        hr_arr = np.asarray([hr], dtype=float)
        with self._lock:
            if not stream._open:
                raise RuntimeError(f"stream {stream.stream_id!r} is closed")
            self._admit_locked(ppg.shape[1:], accel.shape[1:])
            live = stream._live
            if live is not None and live.state is SessionState.QUEUED:
                # Coalesce: the stream's queued window batch grows in
                # place, so a stream has at most one queued session —
                # which is what lets the deadline policy fuse a whole SLO
                # window's worth of arrivals into one dispatch.  Only a
                # queued session's rows are written, and its recording
                # views only the rows it holds.
                n = live.recording.n_windows
                if n == stream._buffer[0].shape[0]:
                    stream._buffer = tuple(_grown(array, 2 * n) for array in stream._buffer)
                ppg_rows, accel_rows, activity_rows, hr_rows = stream._buffer
                ppg_rows[n], accel_rows[n], activity_rows[n], hr_rows[n] = (
                    ppg[0], accel[0], activity, hr
                )
                live.recording = dataclasses.replace(
                    live.recording,
                    ppg_windows=ppg_rows[: n + 1],
                    accel_windows=accel_rows[: n + 1],
                    activity=activity_rows[: n + 1],
                    hr=hr_rows[: n + 1],
                )
                live.arrivals_s.append(self._clock())
                return live
            subject_id = f"{stream.stream_id}#{next(stream._pushes)}"
            stream._buffer = (ppg, accel, activity_arr, hr_arr)
            return self._enqueue_locked(
                stream,
                subject_id,
                WindowedSubject(
                    subject_id=subject_id,
                    ppg_windows=ppg,
                    accel_windows=accel,
                    activity=activity_arr,
                    hr=hr_arr,
                    spec=stream.spec,
                ),
            )

    def _enqueue_locked(  # unguarded-ok: _active_ids, _pending, _unresolved, _paused
        self,
        stream: StreamSession,
        subject_id: str,
        recording: WindowedSubject,
        connected_trace: np.ndarray | None = None,
    ) -> FleetSession:
        """Queue a new session of ``stream`` (lock held, input admitted)."""
        session = FleetSession(
            subject_id=subject_id,
            recording=recording,
            stream=stream,
            connected_trace=connected_trace,
            ticket=next(self._tickets),
            arrivals_s=[self._clock()],
        )
        stream._live = session
        stream._unresolved += 1
        self._active_ids.add(subject_id)
        self._pending.append(session)
        self._unresolved += 1
        if not self._paused:
            # A paused dispatcher releases nothing; resume() wakes it.
            self._arrivals.notify_all()
        return session

    def _take_slot_locked(self) -> int:  # unguarded-ok: _free_slots, _fleet_states
        """A fresh state slot for a new stream (lock held).

        Recycles a freed slot, or hands out the next slot id and doubles
        every continuation state that is too small to hold it.
        """
        if self._free_slots:
            return self._free_slots.pop()
        slot = next(self._new_slots)
        for name, state in self._fleet_states.items():
            if slot >= state.n_slots:
                grown = self._pristine_zoo.entry(name).predictor.make_fleet_state(
                    2 * state.n_slots
                )
                grown.restore_slots(np.arange(state.n_slots), state)
                self._fleet_states[name] = grown
        return slot

    def _admit_locked(  # unguarded-ok: _closed, _corrupted, _window_shapes
        self, ppg_shape: tuple | None = None, accel_shape: tuple | None = None
    ) -> None:
        """The accept guard of every submission path (lock held).

        Raises ``RuntimeError`` when the scheduler is closed or its
        predictor streams can no longer be rebuilt.  Given an input's
        per-window PPG and accelerometer shapes, also raises
        ``ValueError`` when they differ from the first admitted input's,
        and records them on the first call — so callers make it their
        last check before enqueueing, and a rejected input records
        nothing.
        """
        if self._closed:
            raise RuntimeError("scheduler is closed")
        if self._corrupted:
            raise RuntimeError(
                "scheduler predictor streams could not be rebuilt after "
                "an earlier failure; results could no longer match "
                "sequential replay — create a fresh scheduler"
            )
        if ppg_shape is None:
            return
        shapes = (tuple(ppg_shape), tuple(accel_shape))
        if self._window_shapes is None:
            self._window_shapes = shapes
        elif shapes != self._window_shapes:
            raise ValueError(
                f"window geometry (PPG {shapes[0]}, accel {shapes[1]}) does not "
                f"match the geometry this scheduler admitted first "
                f"(PPG {self._window_shapes[0]}, accel {self._window_shapes[1]})"
            )

    def _close_stream(self, stream: StreamSession) -> None:
        """Close a stream; recycle its slot once every push resolved."""
        with self._lock:
            if not stream._open:
                return
            stream._open = False
            self._streams.pop(stream.stream_id, None)
            if stream._unresolved == 0:
                self._release_slot_locked(stream)

    # ------------------------------------------------------------ dispatching
    def _release_due_locked(  # hot-path
        self,
    ) -> bool:  # unguarded-ok: _pending, _paused, _closed
        """Whether the dispatcher should release a batch now (lock held).

        The dispatch fast path, evaluated on every arrival and every
        deadline re-poll: drain releases anything waiting; deadline
        releases a full batch, or holds until the oldest queued window is
        within ``deadline_slack_s`` of its deadline.  ``close()``
        overrides everything so shutdown always drains.
        """
        if self._closed:
            return True
        if not self._pending or self._paused:
            return False
        if self.policy == "drain":
            return True
        if self.max_batch_size is not None and len(self._pending) >= self.max_batch_size:
            return True
        return self._clock() >= self._release_at_locked()

    def _release_at_locked(self) -> float:  # unguarded-ok: _pending
        """Deadline-policy release time of the oldest queued window (lock held)."""
        head = self._pending[0]
        budget = self.slo_s if head.stream.slo_s is None else head.stream.slo_s
        return head.arrivals_s[0] + budget - self.deadline_slack_s

    def _release_wait_locked(self) -> float | None:  # unguarded-ok: _pending, _paused, _closed
        """How long the dispatcher may sleep before re-checking (lock held)."""
        if self.policy == "drain" or self._paused or not self._pending:
            return None
        return min(_DEADLINE_POLL_S, max(0.0, self._release_at_locked() - self._clock()))

    def _dispatch_loop(self) -> None:
        while True:
            with self._arrivals:
                while not self._release_due_locked():
                    self._arrivals.wait(self._release_wait_locked())
                if not self._pending and self._closed:
                    return
                batch: list[FleetSession] = []
                limit = self.max_batch_size or len(self._pending)
                now = self._clock()
                while self._pending and len(batch) < limit:
                    session = self._pending.popleft()
                    session.state = SessionState.RUNNING
                    session.dispatch_s = now
                    self._dispatch_latencies.extend(now - t for t in session.arrivals_s)
                    batch.append(session)
                self._batch_windows.append(sum(s.recording.n_windows for s in batch))
            with self._lock:
                corrupted = self._corrupted
            if corrupted:
                self._fail_batch(
                    batch,
                    RuntimeError(
                        "not dispatched: predictor streams could not be "
                        "rebuilt after an earlier failure"
                    ),
                )
                continue
            try:
                plan, systems, prior, post, slots = self._prepare_batch(batch)
            except BaseException as exc:  # noqa: BLE001 - reported per session
                self._fail_batch(batch, exc)
                continue
            try:
                self._pool.submit(self._execute_batch, batch, plan, systems, prior, post, slots)
            except BaseException as exc:  # noqa: BLE001 - pool shut down mid-flight
                # The stream runtime only advances by *executing*; with the
                # batch never executing, roll the as-if-planned accounting
                # back so the stream position and the totals agree again.
                self._stream_totals = dict(prior)
                self._fail_batch(batch, exc)

    def _prepare_batch(
        self, batch: list[FleetSession]
    ) -> tuple:
        """Plan a batch on the stream runtime (dispatcher side).

        Planning is side-effect free on predictor state.  Returns
        ``(plan, systems, prior_totals, post_totals, slots)``: the batch's
        columnar plan, the cumulative per-model window totals before and
        after this batch, which retries and the failure restore use to
        rebuild stream positions, and the state slot of each session's
        stream.
        """
        subjects = [s.recording for s in batch]
        slots = np.fromiter((s.stream.slot for s in batch), dtype=np.intp, count=len(batch))
        traces = {
            s.subject_id: s.connected_trace
            for s in batch
            if s.connected_trace is not None
        }
        systems = {s.subject_id: s.stream.system for s in batch if s.stream.system is not None}
        plan = self._runtime._plan_fleet(
            subjects, self.constraint, self.use_oracle_difficulty, traces, systems=systems
        )
        # As-if-planned accounting: the stream position moves past this
        # batch now, whether or not execution ultimately succeeds — a
        # quarantined batch must not invalidate its successors.
        prior = dict(self._stream_totals)
        totals = self._runtime.model_window_counts(plan).sum(axis=0).tolist()
        for name, count in zip(self._runtime.zoo.names, totals):
            self._stream_totals[name] = self._stream_totals.get(name, 0) + count
        post = dict(self._stream_totals)
        return plan, systems, prior, post, slots

    def _rebuild_zoo(self, totals: Mapping[str, int]):
        """A stream zoo positioned at cumulative stream position ``totals``.

        Built from the construction-time pristine zoo: predictor state is
        a pure function of cumulative windows consumed, so this is
        bit-identical to the live stream zoo at the same position.
        """
        zoo = copy.deepcopy(self._pristine_zoo)
        for entry in zoo:
            entry.predictor.advance_fleet_state(int(totals.get(entry.name, 0)))
        return zoo

    def _mark_corrupt(self) -> None:
        """Record that stream positions can no longer be reconstructed."""
        with self._lock:
            self._corrupted = True

    def _execute_batch(
        self,
        batch: list[FleetSession],
        plan,
        systems: dict[str, WearableSystem],
        prior_totals: dict[str, int],
        post_totals: dict[str, int],
        slots: np.ndarray,
    ) -> None:
        """Execute one batch with retry/backoff and quarantine-on-exhaustion.

        Every attempt runs on the stream runtime: batches execute one at a
        time in dispatch order, so execution advances the predictor
        streams exactly like sequential replay.  Each attempt gathers the
        batch's continuation ``slots`` into batch-positional copies under
        the lock; only a successful attempt scatters them back, before
        any session resolves and frees its slot.  A failed attempt leaves
        the stream runtime partway through the batch, so its zoo is
        rebuilt — at the batch's planned start position
        (``prior_totals``) for a retry, which is bit-identical to a first
        attempt, or at the as-if-planned position after the batch
        (``post_totals``) once retries are exhausted, since subsequent
        batches were planned assuming this batch's windows were consumed.
        """
        subjects = [s.recording for s in batch]
        for attempt in itertools.count():
            try:
                faults.fire("scheduler.batch")
                with self._lock:
                    states = {
                        name: state.take_slots(slots)
                        for name, state in self._fleet_states.items()
                    }
                fleet = self._runtime._run_many_planned(
                    subjects, plan, systems=systems, fleet_states=states
                )
                results = [fleet.results[s.subject_id] for s in batch]
                break
            except BaseException as exc:  # noqa: BLE001 - retried, then reported
                exhausted = attempt >= self.max_retries
                try:
                    self._runtime.zoo = self._rebuild_zoo(
                        post_totals if exhausted else prior_totals
                    )
                except BaseException as rebuild_exc:  # noqa: BLE001 - poisons, reported per session
                    self._mark_corrupt()
                    self._fail_batch(batch, rebuild_exc)
                    return
                if exhausted:
                    self._fail_batch(batch, exc)
                    return
                time.sleep(faults.backoff_delay(self.retry_backoff_s, attempt))
        with self._lock:
            for name, state in states.items():
                self._fleet_states[name].restore_slots(slots, state)
            now = self._clock()
            for session, result in zip(batch, results):
                if session.done:
                    continue  # resolved elsewhere (e.g. failed at close)
                session.result = result
                session.state = SessionState.DONE
                session.complete_s = now
                self._record_latency_locked(session, now)
                self._resolve_locked(session, deliver=True)
            self._resolved.notify_all()

    def _fail_batch(self, batch: list[FleetSession], exc: BaseException) -> None:
        """Mark every *unresolved* session of a batch failed with the error.

        Batches fail as a unit: by the time planning or execution raises,
        the batch's sessions are entangled (one shared plan, shared predictor
        stream), so the error is reported on each of them.  Per-session
        input problems — empty recordings, trace shape, window geometry
        (see :meth:`_admit_locked`) — raise at :meth:`submit` /
        :meth:`StreamSession.push` and are never enqueued, precisely so
        they cannot poison a batch.  Sessions already in a terminal state
        are skipped, so a session resolves exactly once even when
        shutdown races an in-flight failure — a double resolution would
        corrupt ``_unresolved`` and hang or over-drain
        :meth:`as_completed`.
        """
        with self._lock:
            for session in batch:
                if session.done:
                    continue
                session.error = exc
                session.state = SessionState.FAILED
                self._resolve_locked(session, deliver=True)
            self._resolved.notify_all()

    def _record_latency_locked(
        self, session: FleetSession, now: float
    ) -> None:  # unguarded-ok: _complete_latencies, _deadline_misses
        """Record a completed session's per-arrival latency samples (lock held)."""
        budget = self.slo_s if session.stream.slo_s is None else session.stream.slo_s
        waits = [now - t for t in session.arrivals_s]
        self._complete_latencies.extend(waits)
        self._deadline_misses += sum(1 for w in waits if w > budget)

    def _resolve_locked(self, session: FleetSession, deliver: bool) -> None:  # unguarded-ok: _active_ids, _unresolved, _fleet_states, _free_slots, _done
        """Bookkeeping for a session reaching a terminal state (lock held).

        Every caller (``retire``, ``_fail_batch``, ``_execute_batch``)
        already holds ``_lock`` — the ``_locked`` suffix is the contract,
        hence the attribute-scoped ``unguarded-ok`` pragma above — and
        wakes the ``_resolved`` waiters once, after its last resolution.
        """
        self._active_ids.discard(session.subject_id)
        stream = session.stream
        stream._unresolved -= 1
        if stream._live is session:
            stream._live = None
        if not stream._open and stream._unresolved == 0:
            self._release_slot_locked(stream)
        if deliver:
            self._done.append(session)
        self._unresolved -= 1

    def _release_slot_locked(self, stream: StreamSession) -> None:  # unguarded-ok: _fleet_states, _free_slots
        """Recycle a closed stream's state slot (lock held, stream drained).

        Freeing the slot re-initializes it in every continuation state —
        the per-subject ``reset()`` boundary of sequential replay — so
        the next stream assigned this slot starts fresh.
        """
        for state in self._fleet_states.values():
            state.free([stream.slot])
        self._free_slots.append(stream.slot)

    # --------------------------------------------------------------- results
    def latency_stats(self) -> dict[str, float | int]:
        """Aggregated serving-latency statistics of everything completed so far.

        Per arrival event (a whole-recording submit, or one pushed
        window), two latencies are sampled: enqueue→dispatch (queueing
        delay, ``dispatch_*``) and enqueue→complete (full serving
        latency, ``complete_*``), each aggregated into p50/p95/p99
        percentiles plus the mean.  ``deadline_miss_fraction`` is the
        fraction of completed arrivals whose serving latency exceeded
        their SLO budget; ``n_batches``/``mean_batch_windows`` describe
        how much fusion the batching policy achieved.  Aggregation
        happens here, lazily — the dispatch/resolve paths only append
        raw timestamps — so instrumentation adds nothing measurable to
        the batch hot path.  Percentiles are ``nan`` until a first
        sample exists.
        """
        with self._lock:
            dispatch = np.asarray(self._dispatch_latencies, dtype=float)
            complete = np.asarray(self._complete_latencies, dtype=float)
            misses = self._deadline_misses
            batches = np.asarray(self._batch_windows, dtype=float)
        stats: dict[str, float | int] = {
            "n_windows": int(complete.size),
            "n_batches": int(batches.size),
            "mean_batch_windows": float(batches.mean()) if batches.size else 0.0,
            "deadline_miss_fraction": (
                float(misses / complete.size) if complete.size else 0.0
            ),
        }
        for prefix, samples in (("dispatch", dispatch), ("complete", complete)):
            has = samples.size > 0
            stats[f"{prefix}_mean_s"] = float(samples.mean()) if has else float("nan")
            for q in (50, 95, 99):
                stats[f"{prefix}_p{q}_s"] = (
                    float(np.percentile(samples, q)) if has else float("nan")
                )
        return stats

    def next_done(self, timeout: float | None = None) -> FleetSession | None:
        """The next completed (or failed) session, ``None`` on timeout.

        Every resolved session (``DONE`` or ``FAILED``) waits in an
        unbounded delivery queue until this method or
        :meth:`as_completed` takes it: a server that never consumes
        results grows that queue by one handle per session.
        """
        with self._resolved:
            if not self._resolved.wait_for(lambda: self._done, timeout):
                return None
            return self._done.popleft()

    def as_completed(self) -> Iterator[FleetSession]:
        """Yield sessions as they complete, until no work is outstanding.

        The generator ends when every session submitted so far has been
        resolved *and* delivered; submissions made while iterating extend
        the stream.  Results arrive in completion order — consumers that
        need submission order can sort by :attr:`FleetSession.ticket`.
        Intended for a single consumer; it drains the delivery queue
        :meth:`next_done` describes.
        """
        while True:
            with self._resolved:
                # A resolution delivers its session and decrements
                # _unresolved under the lock, then notifies: waking on
                # an empty queue with nothing outstanding means done.
                self._resolved.wait_for(lambda: self._done or not self._unresolved)
                if not self._done:
                    return
                session = self._done.popleft()
            yield session

    def __iter__(self) -> Iterator[FleetSession]:
        return self.as_completed()

    # ------------------------------------------------------------- lifecycle
    def pause(self) -> None:
        """Hold queued sessions back from dispatch (arrivals still accepted).

        Already-dispatched batches keep running; queued sessions stay
        retirable until :meth:`resume`.  ``close()`` overrides a pause so
        shutdown always drains.
        """
        with self._lock:
            self._paused = True

    def resume(self) -> None:
        """Resume dispatching after :meth:`pause`."""
        with self._lock:
            self._paused = False
            self._arrivals.notify_all()

    def join(self) -> None:
        """Block until every submitted session has resolved."""
        with self._resolved:
            while self._unresolved:
                self._resolved.wait()

    def close(self, wait: bool = True) -> None:
        """Stop accepting sessions and (optionally) drain outstanding work."""
        with self._lock:
            self._closed = True
            self._arrivals.notify_all()
        if wait:
            self.join()
            self._dispatcher.join()
            self._pool.shutdown(wait=True)
        else:
            self._pool.shutdown(wait=False)

    def __enter__(self) -> "FleetScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(wait=exc_type is None)
