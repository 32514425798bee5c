"""A host-speed yardstick, so that times measured on a shared host compare.

The benchmark's host is a small share of a machine that other tenants use:
the same code runs up to half again slower while they are busy, and such a
spell lasts from a fraction of a second to tens of seconds. A run's times
then depend on when it ran more than on the program.

The yardstick is a fixed amount of work of the same kind as the program's:
``reference.reference_logits`` (plain numpy, no code of the program) on a few
graphs fixed by ``SEED``, with parameters fixed by ``SEED``. The benchmark
times it every ``EVERY`` seconds between the program's operations, outside
their timing. A stretch of program work timed at moment ``t`` is scaled by
``nominal / local``, where ``local`` is the median of the ``NEAREST``
yardstick timings around ``t`` and ``nominal`` is the yardstick's time on the
reference host (see ``run.WORKLOADS``). A scaled time is the time the work
would take on that host at its fast speed; it changes when the program does,
not when the neighbours do.
"""

from __future__ import annotations

import time
from array import array

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import reference

SEED = 0  # corpus and parameter seed of every yardstick; never the run's seed
EVERY = 0.1  # seconds between yardstick timings during a measured loop
NEAREST = 5  # yardstick timings whose median gives the local speed


class Yardstick:
    """Reference forward passes over fixed inputs, timed on demand."""

    def __init__(self, inputs: list[tuple[np.ndarray, np.ndarray]], params, nominal_ms: float):
        self.inputs = inputs
        self.params = params
        self.nominal = nominal_ms / 1000.0
        self.at = array("d")  # midpoint of each timing, perf_counter seconds
        self.seconds = array("d")

    def time(self) -> float:
        """Run the yardstick once, record its time, and return when it ended."""
        start = time.perf_counter()
        for adjacency, features in self.inputs:
            reference.reference_logits(adjacency, features, self.params)
        end = time.perf_counter()
        self.at.append(0.5 * (start + end))
        self.seconds.append(end - start)
        return end

    def scale(self, at: np.ndarray) -> np.ndarray:
        """``nominal / local`` for each moment in ``at`` (perf_counter seconds)."""
        if not self.seconds:
            raise ValueError("the yardstick was never timed")
        times = np.frombuffer(self.seconds)
        k = min(NEAREST, times.size)
        local = np.median(sliding_window_view(times, k), axis=1)  # window starting at j
        after = np.searchsorted(np.frombuffer(self.at), at)  # first timing after each moment
        start = np.clip(after - k // 2, 0, local.size - 1)
        return self.nominal / local[start]

    def median_ms(self) -> float:
        return 1000.0 * float(np.median(np.frombuffer(self.seconds)))
