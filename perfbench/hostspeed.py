"""The host's speed, sampled with a fixed reference computation.

The benchmark's host is shared: the same Python work takes up to ~1.7x
longer in some seconds than in others, in phases that last from milliseconds
to minutes. While a `HostClock` is open, a timer signal interrupts the one
thread every `EVERY_S` and runs `reference()` (the benchmark's own code, none
of hxproof's), recording when it ran and how long it took. A time measured
from `start` for `seconds` is then rescaled to the nominal host speed with
the samples taken during it and the nearest one on each side:

    nominal = (seconds - time spent in those samples) * NOMINAL_S
              / mean duration of those samples

so nominal figures are the times on a host where one `reference()` call
takes exactly `NOMINAL_S` (1 ms; on the host where README.md's numbers were
taken, its samples took 0.5-1.0 ms, median 0.9 ms). A change to hxproof
cannot move the reference: it runs the same bytecode on the same inputs
whatever hxproof does.
"""

import bisect
import gc
import signal
import statistics
import time
from dataclasses import dataclass

perf = time.perf_counter
EVERY_S = 0.05
NOMINAL_S = 1.0e-3


@dataclass(frozen=True)
class _Node:
    tag: str
    kids: tuple


def reference():
    """Fixed work shaped like hxproof's: build a tree of 127 frozen
    dataclasses, hash and count its nodes in a dict, print its labels.
    Iterative, so it adds only a few frames to the stack it interrupts."""
    level = [_Node(f"a{i % 7}", ()) for i in range(64)]
    while len(level) > 1:
        level = [_Node("imp" if len(level) % 3 else "dia", (a, b))
                 for a, b in zip(level[::2], level[1::2])]
    seen = {}
    stack = level[:]
    while stack:
        node = stack.pop()
        seen[node] = seen.get(node, 0) + 1
        stack.extend(node.kids)
    return len(seen) + len(" ".join(repr(node.tag) for node in seen))


class HostClock:
    """A context manager: reference samples every EVERY_S while open."""

    def __init__(self):
        for _ in range(5):               # let the interpreter specialise it
            reference()
        self.times = []                  # sample start times
        self.durations = []              # sample durations
        self._sampling = False

    def _sample(self, signum=None, frame=None):
        if self._sampling:               # the timer fired during a sample
            return
        self._sampling = True
        enabled = gc.isenabled()
        gc.disable()                     # no collection lands in a sample
        try:
            t0 = perf()
            reference()
            t1 = perf()
        except RecursionError:           # interrupted a deep recursion
            return
        finally:
            if enabled:
                gc.enable()
            self._sampling = False
        self.times.append(t0)
        self.durations.append(t1 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def nominal(self, start, seconds):
        """`seconds` measured from `start`, at the nominal host speed."""
        i = bisect.bisect_left(self.times, start)
        j = bisect.bisect_left(self.times, start + seconds)
        inside = sum(self.durations[i:j])
        around = self.durations[max(i - 1, 0):j + 1]
        return (seconds - inside) * NOMINAL_S / statistics.fmean(around)

    def median_ms(self):
        return 1e3 * statistics.median(self.durations)
