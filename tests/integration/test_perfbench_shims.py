"""The benchmark's timing shims still name real methods.

``perfbench/tracing.py`` times a traced run by replacing the methods its
``_shims`` table lists, looked up through each class's ``__dict__``; a
renamed or inherited target makes the traced benchmark fail.  This test
loads that module from its file (its module level imports only the
standard library) and checks every target here, so a rename fails
tier-1 instead of only the traced benchmark run.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_shim_target_is_defined_on_its_class():
    tracing = load_tracing()
    shims = tracing._shims(tracing.Tracer())
    assert shims
    missing = [
        f"{cls.__name__}.{attr}" for cls, attr, *_ in shims if attr not in cls.__dict__
    ]
    assert missing == []


def test_batch_spans_read_the_batch_from_the_first_argument():
    # The scheduler spans name their request after ``args[0]``, the batch.
    tracing = load_tracing()
    batch_methods = [
        getattr(cls, attr)
        for cls, attr, _, _, request in tracing._shims(tracing.Tracer())
        if request is not None and attr in ("_prepare_batch", "_execute_batch")
    ]
    assert len(batch_methods) == 2
    for method in batch_methods:
        params = list(inspect.signature(method).parameters)
        assert params[:2] == ["self", "batch"], (method.__qualname__, params)
