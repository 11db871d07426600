"""Host speed, tracked with a fixed canary, for steady timings on a shared host.

On a shared virtual machine the speed of one vCPU changes many times a
second, by up to 2x, as neighbours come and go, and the share of a run spent
in fast spells changes from run to run. A canary, a fixed piece of numpy
work that no edgefit change can alter, runs around and inside timed
intervals. Each piece of an interval between two canaries is rescaled to a
host on which the canary takes REF_S, by the mean time of those two
canaries. Canary time inside an interval is left out.
"""

from __future__ import annotations

import bisect
import time
from contextlib import nullcontext

import numpy as np

# Every measured interval uses the process CPU time: the host takes the vCPU
# away during about 7 % of 6 ms calls, which wall time would count and which
# varies from run to run. With BLAS and edgefit pinned to one thread it is
# all the work the process does.
clock = time.process_time

REF_S = 1.55e-3         # canary time of the reference host: the median
                        # on the 2-vCPU Xeon the baseline was measured on
MIN_GAP_S = 0.025       # maybe_tick runs the canary at most this often


class Pace:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._f32 = (rng.standard_normal((52, 156), dtype=np.float32),
                     rng.standard_normal((156, 40), dtype=np.float32))
        self._i32 = (rng.integers(-128, 128, (52, 156), dtype=np.int32),
                     rng.integers(-128, 128, (156, 40), dtype=np.int32))
        # a conv stack shaped like the model's blocks: seven 52-channel,
        # kernel-5 convs over 40 samples as im2col and a matrix product
        self._convs = [rng.standard_normal((52, 52 * 5), dtype=np.float32)
                       for _ in range(7)]
        self._x = rng.standard_normal((52, 44), dtype=np.float32)
        self.ticks: list[tuple[float, float, float]] = []  # start, end, canary
        self._start_list: list[float] = []
        self.span = nullcontext     # a tracer sets this to span its canaries

    def _canary(self) -> None:
        """Small float32 and int32 products, a Python loop, and a conv stack
        whose weights (about 380 KB) compete for the caches as the model's
        do: the stack tracks the slow spells of the float path that the
        small products miss, and the small products those of the int8
        path."""
        a, b = self._f32
        ai, bi = self._i32
        for _ in range(2):
            a @ b
            ai @ bi
        total = 0
        for k in range(300):
            total += k
        h = self._x
        for w in self._convs:
            cols = np.concatenate([h[:, k:k + 40] for k in range(5)])
            h = np.pad(np.maximum(w @ cols, 0), ((0, 0), (2, 2)))

    def tick(self) -> None:
        """Time the canary now."""
        with self.span():
            start = clock()
            self._canary()
            end = clock()
        self.ticks.append((start, end, end - start))

    def maybe_tick(self, *_) -> None:
        if not self.ticks or clock() - self.ticks[-1][1] >= MIN_GAP_S:
            self.tick()

    def _starts(self) -> list[float]:
        if len(self._start_list) != len(self.ticks):
            self._start_list = [s for s, _, _ in self.ticks]
        return self._start_list

    def work_s(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] outside canaries, at reference host speed.

        Each piece between two ticks is scaled by REF_S over the mean canary
        time of the ticks that bound it; the ends use the last tick before
        t0 and the first after t1.
        """
        starts = self._starts()
        first = bisect.bisect_left(starts, t0)
        last = bisect.bisect_left(starts, t1)
        before = self.ticks[max(first - 1, 0)][2]
        after = self.ticks[min(last, len(starts) - 1)][2]
        total, prev_end, prev_c = 0.0, t0, before
        for i in range(first, last):
            start, end, c = self.ticks[i]
            total += (start - prev_end) * 2 * REF_S / (prev_c + c)
            prev_end, prev_c = max(end, prev_end), c
        return total + (t1 - prev_end) * 2 * REF_S / (prev_c + after)

    def raw_s(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] outside canaries, unscaled."""
        starts = self._starts()
        first = bisect.bisect_left(starts, t0)
        last = bisect.bisect_left(starts, t1)
        inside = sum(min(e, t1) - s for s, e, _ in self.ticks[first:last])
        return (t1 - t0) - inside
