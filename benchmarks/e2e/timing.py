"""Wall-clock measurement that survives a noisy shared machine.

The clock is ``time.perf_counter``.  The box this benchmark was sized on
changes speed by 30-200 % for seconds at a time (neighbours on the same
host): the same run reads 20-40 % apart from one minute to the next,
far above any bound a later change could be held to.  So while anything
is being timed, a *probe* — a fixed, benchmark-owned pure-Python kernel
that calls nothing in ``repro`` — runs every 20 ms from a ``SIGALRM``
handler, in the caller's own thread, between two bytecodes of whatever
is executing.  Each measured interval then

* loses the time the handler itself took inside it, and
* is divided by how much slower than ``PROBE_REFERENCE_S`` the probes
  around it ran.

``PROBE_REFERENCE_S`` is what the probe takes on the sizing box when
nothing disturbs it, so on that box the reported numbers are the wall
clock of an undisturbed run; on another box they are the same numbers
scaled by one constant.  Raw, uncorrected values sit next to the
corrected ones in every result file.

The probe must not speed up when ``repro`` does (it would cancel the
gain), which is why it shares no code with it.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from typing import Callable, Dict, List, Sequence, Tuple

perf = time.perf_counter

#: the probe's duration on the sizing box, undisturbed (5th percentile of
#: in-run probes pooled over forty runs); it only fixes the unit
PROBE_REFERENCE_S = 0.40e-3
#: wall time between two probes; speed regimes last seconds
PROBE_PERIOD_S = 0.020
#: probes averaged on each side when smoothing single-probe noise (~8 %)
SMOOTHING = 2


class _Box:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


class Probe:
    """~0.4 ms of dict/list chasing and small allocations — what the
    interpreter spends its time on inside ``repro`` — so it slows down
    by the same factor the measured work does.  Sized on the box: over
    four minutes of 4x speed swings the traversal path tracked this
    kernel with slope 1.03 (an arithmetic loop gave 1.36, a 10 MB table
    1.37) and 6 % residual.  The table is ~1 MB and every call walks a
    different window of its keys."""

    _TABLE_SIZE = 3_000
    _WINDOW = 130
    _WINDOWS = 64

    def __init__(self) -> None:
        rng = random.Random(0x5EED)
        size = self._TABLE_SIZE
        self._table = {
            key: [rng.randrange(size) for _ in range(6)] for key in range(size)
        }
        self._keys = [
            [rng.randrange(size) for _ in range(self._WINDOW)]
            for _ in range(self._WINDOWS)
        ]
        self._turn = 0

    def __call__(self) -> float:
        self._turn = (self._turn + 1) % self._WINDOWS
        keys = self._keys[self._turn]
        start = perf()
        acc = 0
        get = self._table.get
        for key in keys:
            for other in get(key):
                box = _Box(other, key)
                acc += len(get(other)) + box.a
        return perf() - start


class Timeline:
    """Probe samples over the life of the process, and the correction
    they imply for any interval of it."""

    def __init__(self) -> None:
        self._probe = Probe()
        #: handler entry / exit / probe duration, one per sample
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.levels: List[float] = []
        self._factors: List[float] = []
        self._previous_handler = None
        self._sampling = False

    # ------------------------------------------------------------------
    def _sample(self, _signum=None, _frame=None) -> None:
        if self._sampling:
            return  # a stall delivered the next alarm inside this one
        self._sampling = True
        start = perf()
        level = self._probe()
        self.starts.append(start)
        self.levels.append(level)
        self.ends.append(perf())
        self._sampling = False

    def start(self) -> None:
        self._sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._sample()
        levels = self.levels
        last = len(levels) - 1
        self._factors = [
            statistics.fmean(levels[max(0, i - SMOOTHING) : min(last, i + SMOOTHING) + 1])
            / PROBE_REFERENCE_S
            for i in range(len(levels))
        ]

    # ------------------------------------------------------------------
    def corrected(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would have taken at reference speed.

        The interval is cut where the handler ran (that time is dropped)
        and each piece is divided by the slowdown of the two probes
        around it.
        """
        starts, ends, factors = self.starts, self.ends, self._factors
        count = len(starts)
        index = bisect_right(ends, start)
        total = 0.0
        cursor = start
        while True:
            last_piece = index >= count or starts[index] >= end
            piece_end = end if last_piece else max(cursor, starts[index])
            before = factors[max(0, index - 1)]
            after = factors[min(index, count - 1)]
            total += (piece_end - cursor) * 2.0 / (before + after)
            if last_piece:
                return total
            cursor = ends[index]
            index += 1
            if cursor >= end:
                return total

    def factor(self, start: float, end: float) -> float:
        """Mean slowdown over ``[start, end]`` (probe time included in
        neither side), for callers that rescale parts of an interval."""
        seconds = self.corrected(start, end)
        if seconds <= 0.0:
            return self._factors[min(bisect_left(self.starts, start), len(self._factors) - 1)]
        return (end - start - self.probe_seconds(start, end)) / seconds

    def probe_seconds(self, start: float, end: float) -> float:
        """Time the handler spent inside ``[start, end]``."""
        total = 0.0
        index = bisect_right(self.ends, start)
        starts, ends = self.starts, self.ends
        while index < len(starts) and starts[index] < end:
            total += min(ends[index], end) - max(starts[index], start)
            index += 1
        return total

    def summary(self) -> Dict[str, float]:
        return {
            "probes": len(self.levels),
            "slowdown_median": statistics.median(self._factors),
            "slowdown_max": max(self._factors),
            "probe_p05_ms": percentile(self.levels, 0.05) * 1e3,
        }


class OpLog:
    """Per-operation class, start and end of one closed-loop stream, in
    flat arrays: 17 bytes an operation, so the harness's own bookkeeping
    stays out of ``peak_rss_mb``."""

    def __init__(self) -> None:
        self.classes: List[str] = []
        self._code_of: Dict[str, int] = {}
        self._codes = bytearray()
        self._starts = array("d")
        self._ends = array("d")

    def latencies(self, timeline: Timeline, klass: str, raw: bool = False) -> List[float]:
        code = self._code_of.get(klass)
        spans = [
            (s, e) for c, s, e in zip(self._codes, self._starts, self._ends) if c == code
        ]
        if raw:
            return [e - s for s, e in spans]
        return [timeline.corrected(s, e) for s, e in spans]

    def window(self) -> Tuple[float, float]:
        return self._starts[0], self._ends[-1]

    def seconds(self, timeline: Timeline, raw: bool = False) -> float:
        start, end = self.window()
        return end - start if raw else timeline.corrected(start, end)

    @property
    def count(self) -> int:
        return len(self._codes)


def run_stream(
    ops: Sequence, execute: Callable[[object], Tuple[str, bool]], log: OpLog
) -> int:
    """Closed loop, one caller: issue ``ops`` one after another.

    ``execute(op)`` performs the call and returns ``(class, ok)``.
    Returns the number of operations that failed.
    """
    failed = 0
    starts, ends, codes, code_of = log._starts, log._ends, log._codes, log._code_of
    for op in ops:
        start = perf()
        klass, ok = execute(op)
        ends.append(perf())
        starts.append(start)
        code = code_of.get(klass)
        if code is None:
            code = code_of[klass] = len(log.classes)
            log.classes.append(klass)
        codes.append(code)
        if not ok:
            failed += 1
    return failed


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (no interpolation beyond the sample)."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[rank]
