"""In-memory span tracing for the benchmark, applied to kgec from outside.

A :class:`Tracer` records spans (name, start, end, parent) in flat arrays.
The benchmark opens spans around its own phases with :meth:`Tracer.span`;
with tracing on it also replaces public kgec functions by timing wrappers at
the module attribute their callers look up, e.g. ``kgec.trainer.
loss_and_gradient_arrays`` rather than ``kgec.objective.
loss_and_gradient_arrays``, since the trainer imported the name. A target
that no longer exists is recorded as absent and skipped. Spans stay in
memory until :meth:`Tracer.save` writes them when the run ends.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

# Derived per-call counters: (tracer counters, args, kwargs, result) -> None.
Counter = Callable[[dict, tuple, dict, object], None]


class Tracer:
    """Span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn: Callable, name: str, counter: Counter | None = None) -> Callable:
        """Return ``fn`` recording a span per call, then updating counters."""

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                counter(self.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, target: str, name: str, counter: Counter | None = None) -> bool:
        """Wrap ``module:attr.path`` in place; record ``name`` absent if missing."""
        module_name, _, path = target.partition(":")
        *owner_path, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(name)
            return False
        traced = self.wrap(original, name, counter)
        self._patched.append((owner, attr, original, traced))
        setattr(owner, attr, traced)
        return True

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, attr, original, _ = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        """Call the original functions inside the block: no spans, no counters."""
        for owner, attr, original, _ in reversed(self._patched):
            setattr(owner, attr, original)
        try:
            yield
        finally:
            for owner, attr, _, traced in self._patched:
                setattr(owner, attr, traced)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total (inclusive) time and self time."""
        spans = self.arrays()
        own = self_times(spans["start"], spans["end"], spans["parent"])
        out: dict[str, dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            mask = spans["name_id"] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float((spans["end"][mask] - spans["start"][mask]).sum()),
                "self_s": float(own[mask].sum()),
            }
        return out

    def save(self, path: str | Path) -> None:
        """Write every span as arrays plus the name table (``.npz``)."""
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of its interval its children cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once, so the self times of a tree of properly nested spans
    add up to its root's duration.
    """
    own = end - start
    children: dict[int, list[int]] = defaultdict(list)
    for idx, par in enumerate(parent.tolist()):
        if par >= 0:
            children[par].append(idx)
    for par, kids in children.items():
        lo, hi = start[par], end[par]
        covered, reach = 0.0, lo
        for k in sorted(kids, key=lambda i: start[i]):
            s, e = max(start[k], reach), min(end[k], hi)
            if e > s:
                covered += e - s
                reach = e
        own[par] -= covered
    return own
