"""Machine-independent instrumentation counters.

Flops are never counted literally; merges, curve evaluations, and
transcendental (log) calls are the portable cost proxies.  One CounterSet
belongs to one pruned state and is only ever touched by its owner.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CounterSet:
    merges: int = 0
    curves_stored_sum: int = 0
    curves_evaluated_sum: int = 0
    transcendental_calls: int = 0

