"""Machine-independent instrumentation counters.

Flops are never counted literally; merges, curve evaluations, and
transcendental (log) calls are the portable cost proxies.  A pruned state
tallies its counts as it steps, and `PruneState.counters` derives a fresh
CounterSet from the tallies on every read: mutating one changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CounterSet:
    merges: int = 0
    curves_stored_sum: int = 0
    curves_evaluated_sum: int = 0
    transcendental_calls: int = 0

