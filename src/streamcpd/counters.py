"""Machine-independent instrumentation counters.

Flops are never counted literally; merges, curve evaluations, and
transcendental (log) calls are the portable cost proxies.  A pruned state
tallies its counts as it steps, and `derive` alone turns tallies into
counters: one state's for `PruneState.counters`, columns for `counter_profile`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CounterSet:
    """Running totals of one state, or int64 columns of per-step counts."""

    merges: int = 0
    curves_stored_sum: int = 0
    curves_evaluated_sum: int = 0
    transcendental_calls: int = 0


def derive(added, stored, stored_sum, bounded, evaluated, pooled, known: bool, cost: int) -> CounterSet:
    """The counters from the tallies, Python ints or int64 columns alike:
    ``added`` candidates less the ``stored`` ones were removed, by a merge
    or the barrier; a prefix bound costs 1 log evaluation (3 with theta0
    unknown), a curve 1 (2), a pooled term 1, each times the family's
    ``cost``: the cost model of pricing each from scratch, while the step
    caches prefix terms and so makes fewer calls than it counts."""
    logs = bounded + evaluated if known else 3 * bounded + 2 * evaluated + pooled
    return CounterSet(added - stored, stored_sum, evaluated, cost * logs)
