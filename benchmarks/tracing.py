"""Span tracing from outside the library.

The benchmark measures each layer by wrapping the public functions it
calls, at the module attribute through which they are called (``cli``
calls the trainers through its own imported names, ``learner.evaluate``
calls ``accuracy`` through the learner module, and so on). Nothing inside
``src/dualsim`` is changed.

A span records its name, start, end, parent span and op id, plus an
integer "work" amount where the call has one (configured training steps,
Monte Carlo samples). Spans are stored in flat ``array`` columns, 36
bytes each, and at most MAX_SPANS of them; they are written out when the
run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

OP_SPAN = "op"
MAX_SPANS = 1_000_000


def _steps_arg(args: tuple, kwargs: dict) -> int:
    """Configured outer steps of a trainer call, read from its TrainConfig."""
    for arg in (*args, *kwargs.values()):
        if hasattr(arg, "steps") and hasattr(arg, "learning_rate"):
            return int(arg.steps)
    return 0


def _samples_arg(args: tuple, kwargs: dict) -> int:
    return int(kwargs.get("n", args[1] if len(args) > 1 else 0))


# (module, attribute, span name, work extractor). The attribute is the name
# the caller resolves at call time, which is where a wrapper must sit.
PATCH_POINTS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("dualsim.cli", "generate_world", "synth_lang.generate_world", None),
    ("dualsim.cli", "build_corpus", "synth_lang.build_corpus", None),
    ("dualsim.cli", "train_supervised", "learner.train_supervised", _steps_arg),
    ("dualsim.cli", "dual_learning", "learner.dual_learning", _steps_arg),
    ("dualsim.cli", "multistep_dual_learning", "learner.multistep_dual_learning", _steps_arg),
    ("dualsim.learner", "evaluate", "learner.evaluate", None),
    ("dualsim.learner", "accuracy", "metrics.accuracy", None),
    ("dualsim.learner", "estimators", "metrics.estimators", None),
    ("dualsim.theory", "predict_dual", "theory.predict_dual", None),
    ("dualsim.theory", "predict_multistep", "theory.predict_multistep", None),
    ("dualsim.theory", "proportional_policy", "theory.proportional_policy", None),
    ("dualsim.theory", "proportional_dual_accuracy", "theory.proportional_dual_accuracy", None),
    ("dualsim.theory", "build_dual_joint", "outcome_model.build_dual_joint", None),
    ("dualsim.theory", "build_triple_joint", "outcome_model.build_triple_joint", None),
    ("dualsim.oracle", "build_dual_joint", "outcome_model.build_dual_joint", None),
    ("dualsim.oracle", "build_triple_joint", "outcome_model.build_triple_joint", None),
    ("dualsim.oracle", "enumerate_dual", "oracle.enumerate_dual", None),
    ("dualsim.oracle", "enumerate_triple", "oracle.enumerate_triple", None),
    ("dualsim.oracle", "monte_carlo", "oracle.monte_carlo", _samples_arg),
    ("dualsim.oracle", "counter_uniforms", "oracle.counter_uniforms", None),
)


class Tracer:
    """In-memory span log with wrappers that can be switched on per op."""

    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN]
        self._name_ids = {OP_SPAN: 0}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._stack: list[int] = []
        self._op = -1
        self.missing: list[str] = []
        self._patches = self._resolve_patches()

    def _resolve_patches(self) -> list[tuple[Any, str, Callable, Callable]]:
        patches = []
        for module_name, attr, span, work_fn in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if span not in self._name_ids:
                self._name_ids[span] = len(self.names)
                self.names.append(span)
            name_id = self._name_ids[span]
            patches.append((module, attr, original, self._wrap(original, name_id, work_fn)))
        return patches

    def _open(self, name_id: int, work: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self.work.append(work)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, name_id: int, work_fn: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            idx = self._open(name_id, work_fn(args, kwargs) if work_fn else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    @contextlib.contextmanager
    def op(self, op_index: int) -> Iterator[None]:
        """Trace one op: install the wrappers, record the op's root span."""
        self._op = op_index
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        root = self._open(0, 0)
        try:
            yield
        finally:
            self._close(root)
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)
            self._op = -1

    @property
    def full(self) -> bool:
        """Whether the log holds MAX_SPANS spans; later ops go untraced."""
        return len(self.start) >= MAX_SPANS

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op_id": np.frombuffer(self.op_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "work": np.frombuffer(self.work, dtype=np.int64),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.columns())


class SpanTable:
    """Read-side view of a span log: durations, self times and per-op sums."""

    def __init__(self, tracer: Tracer) -> None:
        cols = tracer.columns()
        self.names = tracer.names
        self.name_id = cols["name_id"]
        self.op_id = cols["op_id"]
        self.work = cols["work"]
        self.dur = cols["end"] - cols["start"]
        child_time = np.zeros_like(self.dur)
        has_parent = cols["parent"] >= 0
        np.add.at(child_time, cols["parent"][has_parent], self.dur[has_parent])
        self.self_time = self.dur - child_time
        roots = self.name_id == 0
        self.ops = self.op_id[roots]
        self.op_self = self.self_time[roots]

    @property
    def n_ops(self) -> int:
        return int(self.ops.size)

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name_id, ids)

    def calls_per_op(self, *names: str) -> float:
        return float(self.mask(*names).sum() / self.n_ops)

    def per_call_median(self, *names: str) -> float:
        d = self.dur[self.mask(*names)]
        return float(np.median(d)) if d.size else 0.0

    def per_op_median(self, *names: str) -> float:
        """Median over traced ops of the time the op spent in these calls."""
        m = self.mask(*names)
        totals = np.zeros(int(self.ops.max()) + 1)
        np.add.at(totals, self.op_id[m], self.dur[m])
        return float(np.median(totals[self.ops]))

    def total(self, *names: str) -> float:
        return float(self.dur[self.mask(*names)].sum())

    def total_work(self, *names: str) -> int:
        return int(self.work[self.mask(*names)].sum())

    def self_seconds_per_op(self) -> dict[str, float]:
        """Mean self time per op of every span name, the op root included."""
        out = {}
        for name_id, name in enumerate(self.names):
            m = self.name_id == name_id
            if m.any():
                out[name] = float(self.self_time[m].sum() / self.n_ops)
        return out

