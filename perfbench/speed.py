"""The machine's speed, from a fixed pure-Python probe loop.

The benchmark's shared virtual machine (2 vCPUs, Intel Xeon) switches
between states whose speeds differ by a factor of about 1.5, for seconds to
minutes at a time; every piece of the program's work, and this probe, slows
by about the same factor.  The worker times the probe between the pieces of
the program's work and reports each of their times scaled by ``PROBE_S`` /
(the median probe time of the same round): the time the work would take on
a machine where the probe takes ``PROBE_S``.  The probe is part of the
benchmark, so a change to the program does not move it.  This module does
not import streamcpd.
"""

from __future__ import annotations

import math
import statistics
import time

# the probe's median time in the machine's faster state; a scale, so that
# the scaled times read as seconds on that machine
PROBE_S = 0.0025


def probe() -> float:
    """Wall time of one run of a fixed interpreter-bound loop (floats,
    a log, list and dict operations, calls), about ``PROBE_S``."""
    t0 = time.perf_counter()
    acc, xs, seen = 0.0, [], {}
    for k in range(1, 3001):
        v = math.log(k) * 0.5 + acc / k
        xs.append(v)
        if len(xs) > 8:
            acc += xs.pop(0) - min(xs)
        seen[k & 63] = max(seen.get(k & 63, 0.0), v)
    sum(seen.values())
    return time.perf_counter() - t0


def factor(probes: list[float]) -> float:
    """Scale for times measured among ``probes``: ``PROBE_S`` over their
    median."""
    return PROBE_S / statistics.median(probes)
