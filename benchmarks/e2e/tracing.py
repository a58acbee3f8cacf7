"""Per-layer tracing from outside the program.

A traced run replaces the public functions listed in
``adapter.TRACE_TARGETS`` with wrappers for as long as the timed region
lasts, and puts the originals back afterwards; nothing under ``src/`` is
edited.  Each call records one span ``(kind, start, end, parent)`` in
memory.  After the run every request (top-level span) gets the same
interference correction as the end-to-end numbers, self times are
derived (a span's duration minus the part its children cover) and
summed per ``layer.group``; whatever of the timed region no span covers
is the harness's own residue.  The groups plus the residue should add
up to the timed seconds; ``attribution_error`` reports by how much they
do not.
"""

from __future__ import annotations

import bisect
import inspect
import json
from typing import Any, Callable, Dict, List, Optional, Tuple

from timing import Timeline, perf


class Tracer:
    def __init__(self) -> None:
        self.kinds: List[Tuple[str, str, str]] = []  # (layer, group, name)
        self.kind_of: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []
        self._originals: List[Tuple[type, str, Any]] = []
        #: extra counters filled by hooks (e.g. WAL bytes)
        self.counters: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(self, function: Callable, kind: int, hook=None) -> Callable:
        kind_of, starts, ends, parents, stack = (
            self.kind_of, self.starts, self.ends, self.parents, self._stack,
        )

        def enter() -> int:
            index = len(starts)
            kind_of.append(kind)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf())
            return index

        def leave(index: int) -> None:
            ends[index] = perf()
            stack.pop()

        if inspect.isgeneratorfunction(function):

            def traced_generator(*args, **kwargs):
                # One span per resumption: the time between two yields
                # belongs to whoever runs in between, not to this task.
                generator = function(*args, **kwargs)
                sent = None
                while True:
                    index = enter()
                    try:
                        item = generator.send(sent)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        leave(index)
                    sent = yield item

            traced_generator.__wrapped__ = function
            return traced_generator

        if hook is None:

            def traced(*args, **kwargs):
                index = enter()
                try:
                    return function(*args, **kwargs)
                finally:
                    leave(index)

        else:

            def traced(*args, **kwargs):
                index = enter()
                try:
                    return hook(function, args, kwargs)
                finally:
                    leave(index)

        traced.__wrapped__ = function
        return traced

    def install(
        self,
        targets: List[Tuple[type, str, str, str]],
        hooks: Optional[Dict[Tuple[type, str], Callable]] = None,
    ) -> None:
        hooks = hooks or {}
        for cls, attribute, layer, group in targets:
            original = cls.__dict__[attribute]
            self.kinds.append((layer, group, f"{cls.__name__}.{attribute}"))
            kind = len(self.kinds) - 1
            hook = hooks.get((cls, attribute))
            if isinstance(original, classmethod):
                wrapper: Any = classmethod(self._wrap(original.__func__, kind, hook))
            elif isinstance(original, staticmethod):
                wrapper = staticmethod(self._wrap(original.__func__, kind, hook))
            else:
                wrapper = self._wrap(original, kind, hook)
            self._originals.append((cls, attribute, original))
            setattr(cls, attribute, wrapper)

    def uninstall(self) -> None:
        while self._originals:
            cls, attribute, original = self._originals.pop()
            setattr(cls, attribute, original)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def aggregate(
        self,
        timeline: Timeline,
        windows: List[Tuple[float, float]],
        inclusive_groups: Tuple[str, ...] = (),
    ) -> Dict[str, Any]:
        """Self time per ``layer.group`` over the timed windows.

        Returns corrected seconds (``self_s``), call counts, the
        corrected timed seconds, the harness residue (window time no
        span covers) and the relative gap between parts and whole.
        ``inclusive_s`` holds whole-span durations for the groups named
        in ``inclusive_groups`` (orchestrating calls whose own self time
        says little); those overlap other groups and are not summed.
        """
        starts, ends, parents, kind_of = (
            self.starts, self.ends, self.parents, self.kind_of,
        )
        count = len(starts)
        self_raw = [ends[i] - starts[i] for i in range(count)]
        top = list(range(count))
        for i in range(count):
            parent = parents[i]
            if parent >= 0:
                self_raw[parent] -= ends[i] - starts[i]
                top[i] = top[parent]
        # A probe ran inside whichever span was innermost at the time;
        # its ancestors lose it with the child's duration.
        for probe_start, probe_end in zip(timeline.starts, timeline.ends):
            inner = bisect.bisect_right(starts, probe_start) - 1
            while inner >= 0 and ends[inner] < probe_end:
                inner = parents[inner]
            if inner >= 0:
                self_raw[inner] -= probe_end - probe_start

        windows = sorted(windows)
        window_starts = [w[0] for w in windows]
        tops_in: List[List[int]] = [[] for _ in windows]
        factor_of_top: Dict[int, float] = {}
        for i in range(count):
            if parents[i] >= 0:
                continue
            position = bisect.bisect_right(window_starts, starts[i]) - 1
            if position < 0 or starts[i] > windows[position][1]:
                continue  # ran outside the timed region
            tops_in[position].append(i)
            factor_of_top[i] = timeline.factor(starts[i], ends[i])

        self_s: Dict[str, float] = {}
        inclusive_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        calls_by_name: Dict[str, int] = {}
        keys = [f"{layer}.{group}" for layer, group, _ in self.kinds]
        for i in range(count):
            factor = factor_of_top.get(top[i])
            if factor is None:
                continue
            key = keys[kind_of[i]]
            name = self.kinds[kind_of[i]][2]
            self_s[key] = self_s.get(key, 0.0) + self_raw[i] / factor
            calls[key] = calls.get(key, 0) + 1
            calls_by_name[name] = calls_by_name.get(name, 0) + 1
            if key in inclusive_groups:
                inclusive_s[key] = inclusive_s.get(key, 0.0) + timeline.corrected(
                    starts[i], ends[i]
                )

        timed = 0.0
        residue = 0.0
        for (window_start, window_end), tops in zip(windows, tops_in):
            timed += timeline.corrected(window_start, window_end)
            cursor = window_start
            for i in tops:
                residue += timeline.corrected(cursor, starts[i])
                cursor = ends[i]
            residue += timeline.corrected(cursor, window_end)
        parts = sum(self_s.values()) + residue
        return {
            "self_s": self_s,
            "inclusive_s": inclusive_s,
            "calls": calls,
            "calls_by_name": calls_by_name,
            "timed_s": timed,
            "harness_self_s": residue,
            "spans": sum(calls.values()),
            "attribution_error": abs(parts - timed) / timed if timed else 0.0,
        }

    def write_jsonl(self, path: str, limit: int = 200_000) -> int:
        """``name, layer, start, end, parent, op_id`` per line; ``op_id``
        is the top-level span a span ran under (one per request).  The
        file holds the first ``limit`` spans — a sample to read; the
        aggregates use every span."""
        count = min(limit, len(self.starts))
        top = list(range(count))
        prefixes = [
            f'{{"name": {json.dumps(name)}, "layer": {json.dumps(layer)}, '
            for layer, _, name in self.kinds
        ]
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(count):
                parent = self.parents[i]
                if parent >= 0:
                    top[i] = top[parent]
                handle.write(
                    f'{prefixes[self.kind_of[i]]}"start": {self.starts[i]!r}, '
                    f'"end": {self.ends[i]!r}, "parent": {parent}, '
                    f'"op_id": {top[i]}}}\n'
                )
        return count
