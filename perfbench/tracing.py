"""In-memory span recorder and class-level timing shims for traced runs.

The benchmark measures the pipeline's layers from the outside: a traced
run replaces the methods :func:`_shims` lists with wrappers that record
one span per call (name, start, end, parent, request id, rows) and
restores the originals afterwards.  The wrappers are installed on
the classes, not on instances, so they also time the copies the
scheduler deep-copies and the runtimes the executor clones.  Spans stay
in memory and are written out once, when the run ends.

Five private methods are shimmed because their layer has no public
boundary around the work: ``CHRISRuntime._plan_fleet`` and
``CHRISRuntime._run_many_planned`` (the scheduler and the executor call
them instead of ``run_many``), ``FleetScheduler._prepare_batch`` and
``FleetScheduler._execute_batch`` (the dispatcher and worker side of a
batch), and ``FleetExecutor._execute_shard_local`` (one journaled shard).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: Per-layer prefix of every span name; a layer's self time is the sum
#: of its spans' durations minus the time their child spans cover.
LAYERS = ("ml", "models", "nn", "hw", "runtime", "scheduler", "fleet", "checkpoint")

#: TimePPG variants in the order the per-conv metrics list them.
NN_MODELS = ("timeppg_small", "timeppg_big")

#: Convolutions per TimePPG variant (three blocks of three).
N_CONVS = 9


def model_slug(name: str) -> str:
    """``TimePPG-Big`` -> ``timeppg_big``, ``AT`` -> ``at``."""
    return name.lower().replace("-", "_")


class Span:
    """One timed call; ``child_s`` accumulates the durations of its children."""

    __slots__ = ("name", "start", "end", "parent", "request", "thread", "rows", "child_s", "counter")

    def __init__(self, name, start, parent, request, thread, rows):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.thread = thread
        self.rows = rows
        self.child_s = 0.0
        #: Conv layers seen so far inside a ``Sequential.forward`` span.
        self.counter = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records spans per thread.

    A span inherits its parent's request id; ``request`` labels root
    spans opened without one (the workload sets it per pass).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = ""
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def enclosing(self, prefix: str) -> Span | None:
        """Nearest open span on this thread whose name starts with ``prefix``."""
        for span in reversed(self._stack()):
            if span.name.startswith(prefix):
                return span
        return None

    def open(self, name: str, rows: int = 0, request: str | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None:
            request = parent.request if parent is not None else self.request
        span = Span(name, time.perf_counter(), parent, request, threading.get_ident(), rows)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)

    def dump(self, path: Path) -> None:
        """Write every recorded span as one JSON line (called once, at the end)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for i, span in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": index.get(id(span.parent)),
                    "request": span.request,
                    "thread": span.thread,
                    "rows": span.rows,
                }
                out.write(json.dumps(record) + "\n")


def _rows(args) -> int:
    """Leading dimension of the first positional argument (a window batch)."""
    shape = getattr(args[0], "shape", None) if args else None
    return int(shape[0]) if shape else 0


def _shims(tracer: Tracer):
    """``(class, method, span name or namer, count rows, request id)`` per timed method."""
    from repro.core.checkpoint import FleetJournal, RunStager
    from repro.core.fleet import FleetExecutor
    from repro.core.runtime import CHRISRuntime
    from repro.core.scheduler import FleetScheduler, StreamSession
    from repro.hw.platform import WearableSystem
    from repro.ml.activity_classifier import ActivityClassifier
    from repro.ml.random_forest import RandomForestClassifier
    from repro.models.adaptive_threshold import AdaptiveThresholdPredictor
    from repro.models.timeppg import TimePPGPredictor
    from repro.nn.layers import Conv1d
    from repro.nn.network import Sequential

    def timeppg(self) -> str:
        return f"models.{model_slug(self.config.name)}"

    def forward(self) -> str:
        model = tracer.enclosing("models.timeppg")
        slug = model.name.split(".", 1)[1] if model is not None else "unowned"
        return f"nn.{slug}.forward"

    def conv(self) -> str:
        parent = tracer.current()
        if parent is None or not parent.name.endswith(".forward"):
            return "nn.unowned.conv"
        k = parent.counter
        parent.counter += 1
        return f"{parent.name[: -len('.forward')]}.conv{k}"

    def stream_request(self, args, kwargs) -> str:
        return self.stream_id

    def batch_request(self, args, kwargs) -> str:
        batch = args[0] if args and isinstance(args[0], list) else args[1]
        return f"{batch[0].subject_id}..{batch[-1].subject_id}"

    return [
        (ActivityClassifier, "predict_difficulty", "ml.predict_difficulty", True, None),
        (ActivityClassifier, "extract_features", "ml.features", True, None),
        (RandomForestClassifier, "predict", "ml.forest", True, None),
        (AdaptiveThresholdPredictor, "predict", "models.at", True, None),
        (AdaptiveThresholdPredictor, "predict_fleet", "models.at", True, None),
        (TimePPGPredictor, "predict", timeppg, True, None),
        (TimePPGPredictor, "predict_fleet", timeppg, True, None),
        (Sequential, "forward", forward, True, None),
        (Conv1d, "forward", conv, True, None),
        (WearableSystem, "cached_prediction_cost", "hw.cost", False, None),
        (CHRISRuntime, "run_many", "runtime.run_many", False, None),
        (CHRISRuntime, "_plan_fleet", "runtime.plan", False, None),
        (CHRISRuntime, "_run_many_planned", "runtime.execute", False, None),
        (StreamSession, "push", "scheduler.push", False, stream_request),
        (FleetScheduler, "_prepare_batch", "scheduler.prepare", False, batch_request),
        (FleetScheduler, "_execute_batch", "scheduler.batch", False, batch_request),
        (FleetExecutor, "_execute_shard_local", "fleet.shard", False, None),
        (RunStager, "stage_shard", "checkpoint.stage", False, None),
        (RunStager, "load_shard", "checkpoint.load", False, None),
        (FleetJournal, "mark", "checkpoint.mark", False, None),
        (FleetJournal, "open_run", "checkpoint.open", False, None),
    ]


def _wrap(tracer: Tracer, original, name, rows, request):
    @functools.wraps(original)
    def shim(self, *args, **kwargs):
        span = tracer.open(
            name if isinstance(name, str) else name(self),
            _rows(args) if rows else 0,
            request(self, args, kwargs) if request is not None else None,
        )
        try:
            return original(self, *args, **kwargs)
        finally:
            tracer.close(span)

    return shim


@contextmanager
def installed(tracer: Tracer):
    """Install every shim for the duration of the block, then restore."""
    saved = []
    try:
        for cls, attr, name, rows, request in _shims(tracer):
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, _wrap(tracer, original, name, rows, request))
        yield tracer
    finally:
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)


def _outermost(span: Span) -> bool:
    """Whether a model span is not nested in a span of the same model.

    ``predict`` and ``predict_fleet`` share a span name; a ``predict``
    nested in a same-model span is one per-subject forward batch of the
    base ``predict_fleet``.
    """
    return span.parent is None or span.parent.name != span.name


def layer_metrics(spans: list[Span], passes: int, conv_macs: dict[str, list[int]]) -> dict[str, float]:
    """Per-layer times and counts from a traced phase, per measured pass.

    ``conv_macs`` maps each TimePPG slug to the MAC count of each of its
    convolutions for one window (``nn.ops_count.layer_summary``).
    """
    per = 1.0 / max(passes, 1)
    out: dict[str, float] = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        layer = span.name.split(".", 1)[0]
        if layer in self_by_layer:
            self_by_layer[layer] += span.self_s

    def total(name: str, only_outermost: bool = False) -> tuple[float, int, int]:
        group = by_name.get(name, [])
        if only_outermost:
            group = [s for s in group if _outermost(s)]
        return sum(s.duration for s in group), len(group), sum(s.rows for s in group)

    features_s, _, _ = total("ml.features")
    forest_s, _, _ = total("ml.forest")
    _, ml_calls, ml_rows = total("ml.predict_difficulty")
    out["ml.features_s"] = features_s * per
    out["ml.forest_s"] = forest_s * per
    out["ml.calls"] = ml_calls * per
    out["ml.windows_per_call"] = ml_rows / ml_calls if ml_calls else 0.0

    for slug in ("at", *NN_MODELS):
        seconds, _, rows = total(f"models.{slug}", only_outermost=True)
        out[f"models.{slug}_s"] = seconds * per
        out[f"models.{slug}_windows"] = rows * per
    # A TimePPG call is one ``predict`` batch: under the bitwise policy
    # ``predict_fleet`` issues one per subject, nested in its own span.
    big = by_name.get("models.timeppg_big", [])
    fleet_calls = {id(s.parent) for s in big if not _outermost(s)}
    out["models.timeppg_big_calls"] = (len(big) - len(fleet_calls)) * per

    for slug in NN_MODELS:
        forwards, _, _ = total(f"nn.{slug}.forward")
        conv_total = 0.0
        for k in range(N_CONVS):
            seconds, _, rows = total(f"nn.{slug}.conv{k}")
            conv_total += seconds
            out[f"nn.{slug}.conv{k}_s"] = seconds * per
            macs = conv_macs[slug][k]
            out[f"nn.{slug}.conv{k}_gflops"] = 2.0 * macs * rows / seconds / 1e9 if seconds else 0.0
        out[f"nn.{slug}.nonconv_s"] = (forwards - conv_total) * per

    cost_s, cost_calls, _ = total("hw.cost")
    out["hw.cost_s"] = cost_s * per
    out["hw.cost_calls"] = cost_calls * per
    out["scheduler.push_s"] = total("scheduler.push")[0] * per
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer] * per
    return out


def covered_seconds(spans: list[Span], intervals: list[tuple[float, float]] | None = None) -> float:
    """Wall time during which at least one span was open.

    On one thread this equals the sum of all layers' self times.  When
    threads overlap (``serve``: pushes, dispatcher planning and batch
    execution run concurrently) the self-time sum exceeds the wall time,
    so coverage is the union of span intervals, clipped to ``intervals``
    (the measured bursts) when given.
    """
    edges = sorted((span.start, span.end) for span in spans)
    merged: list[list[float]] = []
    for start, end in edges:
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    if intervals is None:
        return sum(end - start for start, end in merged)
    return sum(
        max(0.0, min(end, b) - max(start, a))
        for start, end in merged
        for a, b in intervals
    )
