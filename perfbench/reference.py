"""Host-speed reference for the benchmark's timings.

This benchmark runs on shared hosts whose speed changes under it.  On the
2-vCPU KVM guest (Xeon, Sapphire Rapids) it was written on, the host switches
between two states for seconds to minutes at a time: at full speed, and about
1.8x slower while other tenants are busy.  The process's CPU time grows with
its wall time (the vCPU itself runs slower; it is not descheduled), so a run
that falls in a slow spell is slower as a whole, whatever statistic is taken
over its calls.

So the reference, ``reference()``, a fixed pure-Python kernel that uses none
of cpdzip, runs every 0.2 s through each phase of a pass: between program
calls, and inside long ones (``workloads.Pass``).  Each call's time is scaled
by how fast the host ran the reference just before, during and just after
it::

    scaled = took * REF_S / mean(reference runs from before to after the call)

that is, the call's time on a host where ``reference()`` takes ``REF_S``
seconds.  A change to the program moves the scaled time exactly as much as
the wall time; a change in host speed moves both the call and the reference.

The kernel is made of the kinds of work cpdzip does (rational and big-integer
arithmetic, tuple hashing, float logarithms, small objects and method calls,
sorting), chosen because the slow state slows each of them about as much as
it slows cpdzip's calls (1.7-1.85x).  A tight integer loop (1.5x) or a walk
over a large list (1.3x) slows much less, and a reference made of them
leaves the slow state in the scaled times.  Measured on that host, a call's
scaled time in the slow state is within 7% of its scaled time at full speed.
"""

from __future__ import annotations

import gc
import math
import time
from fractions import Fraction

# What ``reference()`` takes at full speed on the host described above, with
# Python 3.11.  Only the unit of the scaled timings depends on it: the ratio
# of two commits' timings does not.
REF_S = 0.015

_MERSENNE = 2**521 - 1


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def at(self, x: int) -> int:
        return self.a * x + self.b


def _kernel() -> int:
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i)
    counts: dict[tuple[int, int, int], int] = {}
    for i in range(12000):
        key = (i % 13, i % 17, i % 19)
        counts[key] = counts.get(key, 0) + 1
    s = 0.0
    for i in range(1, 12000):
        s += math.log(i) * 0.5
    t = 0
    for i in range(15000):
        t += _Point(i, 3).at(2)
    big = 3**400
    for i in range(4000):
        big = (big * 7 + i) % _MERSENNE
    rows = sorted(((i * 7919) % 5003, i % 11, -i) for i in range(5000))
    return acc.denominator % 97 + len(counts) + int(s) % 3 + t % 5 + big % 7 + rows[0][2]


def reference() -> float:
    """Run the reference kernel once; returns its wall time in seconds.

    The garbage collector is off meanwhile: the kernel makes no cycles, and a
    collection it set off would be timed by how large the caller's heap is.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
