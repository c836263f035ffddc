"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent).  Spans are opened by wrappers that the
recorder installs around package functions in the namespace that calls them
(``witness.block_columns``, ``threshold.compress_conjugated``, ...), so the
package itself is not edited.  Calls are strictly nested on one thread, which
makes a span's self time its duration minus the summed durations of its
direct children.
"""

from __future__ import annotations

import time
from array import array

import numpy as np


class SpanRecorder:
    """Column store of spans plus per-name counters; nothing is written until asked."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict = {}
        self._stack = [-1]
        self._installed: list = []

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._name(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        """`fn` wrapped in a span; `count(args)` adds to the `<name>.<key>` counters.

        The body repeats `open`/`close` inline with local bindings: it runs
        around every kernel call, where each attribute lookup shows up in the
        trace overhead.
        """
        nid = self._name(name)
        stack, name_id, parent, start, end = (
            self._stack, self.name_id, self.parent, self.start, self.end
        )
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            if count is not None:
                for key, value in count(args).items():
                    key = f"{name}.{key}"
                    counts[key] = counts.get(key, 0) + value
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        """Replace each (container, key, span name, count) target by its wrapper.

        A container is a module, class or namespace (attribute access) or a
        dict (item access); missing keys are skipped, so a function that a
        later change removes simply reports no calls.
        """
        for container, key, name, count in targets:
            is_dict = isinstance(container, dict)
            original = container.get(key) if is_dict else getattr(container, key, None)
            if original is None:
                continue
            wrapped = self.wrap(original, name, count)
            if is_dict:
                container[key] = wrapped
            else:
                setattr(container, key, wrapped)
            self._installed.append((container, key, original, is_dict))

    def uninstall(self) -> None:
        for container, key, original, is_dict in reversed(self._installed):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)
        self._installed.clear()

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Per span name: calls, total duration and self time (seconds)."""
        return summarize(self.names, **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=duration.size
    )
    return duration - covered


def summarize(names, name_id, parent, start, end) -> dict:
    own = self_times(parent, start, end)
    size = len(names)
    calls = np.bincount(name_id, minlength=size)
    total = np.bincount(name_id, weights=end - start, minlength=size)
    self_s = np.bincount(name_id, weights=own, minlength=size)
    return {
        name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
        for i, name in enumerate(names)
    }
