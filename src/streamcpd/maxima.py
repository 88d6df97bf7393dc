"""Adaptive maxima checking with telescoped prefix bounds.

Each retained candidate carries the running sum of the per-segment
likelihood-ratio statistics accumulated strictly before it.  That sum plus
the candidate's own suffix statistic upper-bounds the maximum over all
earlier candidates, so under the null the check usually stops after
evaluating a single curve; the bound only ever skips work, it never changes
the threshold decision.
"""

from __future__ import annotations

from typing import NamedTuple

from .families import FamilySpec
from .pruning import PruneState, curve_m


class CheckOutcome(NamedTuple):
    """Result of one threshold check.

    ``changed`` implies ``stat >= threshold``; otherwise either the prefix
    bound certified the maximum below the threshold or every curve was
    evaluated below it.  ``bound_used`` is the last bound computed, on the
    doubled (LR) scale.
    """

    changed: bool
    tau_low: int | None
    t_now: int
    stat: float | None
    curves_evaluated: int
    bound_used: float


def attach_bounds(state: PruneState, spec: FamilySpec) -> None:
    """Set the prefix bound of the candidate appended by the latest update.

    Call once after every update.  The first candidate gets 0; a new
    candidate gets its predecessor's bound plus the statistic of the segment
    between them.  Candidates that merged away need nothing, and survivors
    keep their bounds (their prefix segments are frozen).
    """
    recs = state.records
    if not recs:
        return
    last = recs[-1]
    if last.tau != state.total_count - 1:
        return  # newest candidate merged away during the cascade
    if len(recs) == 1:
        last.m_bound = 0.0
        return
    prev = recs[-2]
    m = curve_m(state, spec, prev.tau, prev.cum_sum, last.tau, last.cum_sum)
    state.counters.transcendental_calls += spec.transcendental_cost * (
        1 if state.theta0 is not None else 3
    )
    last.m_bound = prev.m_bound + m


def check(state: PruneState, spec: FamilySpec, threshold: float) -> CheckOutcome:
    """Decide whether the doubled statistic crosses ``threshold``.

    Walks candidates newest to oldest.  At each one, if twice (suffix stat +
    prefix bound) is below the threshold, every remaining candidate is
    certified below it and the walk stops; if twice the suffix stat itself
    reaches the threshold, that is a detection on [tau, now].
    """
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    recs = state.records
    c = state.counters
    T = state.total_count
    St = state.total_sum
    evals = 0
    bound2 = 0.0
    hit_tau: int | None = None
    hit_stat: float | None = None
    known = state.theta0 is not None
    pooled = None if known or not recs else T * spec.conjugate(St / T)

    for r in reversed(recs):
        m = curve_m(state, spec, r.tau, r.cum_sum, T, St, pooled)
        evals += 1
        bound2 = 2.0 * (m + r.m_bound)
        if bound2 < threshold:
            break
        if 2.0 * m >= threshold:
            hit_tau = r.tau
            hit_stat = 2.0 * m
            break

    c.curves_evaluated_sum += evals
    c.transcendental_calls += evals * spec.transcendental_cost * (1 if known else 2)
    if pooled is not None:
        c.transcendental_calls += spec.transcendental_cost
    return CheckOutcome(hit_tau is not None, hit_tau, T, hit_stat, evals, bound2)
