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

    Call once after every `update`; `step_states` sets it in `_absorb`.  The
    first candidate gets 0; a new candidate gets its predecessor's bound plus
    the statistic of the segment between them.  Merged candidates need
    nothing, and survivors keep their bounds (their prefix segments are frozen).
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
    last.m_bound = prev.m_bound + curve_m(state, spec, prev.tau, prev.cum_sum, last.tau, last.cum_sum,
                                          last.pre_term, prev.pre_term, last.left_mean)
    state.bounded += 1


def check(state: PruneState, spec: FamilySpec, threshold: float) -> CheckOutcome:
    """Decide whether the doubled statistic crosses ``threshold`` by `_walk`."""
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    hit_tau, hit_stat, evals, bound2 = _walk(state, spec, threshold)
    return CheckOutcome(hit_tau is not None, hit_tau, state.total_count, hit_stat, evals, bound2)


def _walk(state: PruneState, spec: FamilySpec, threshold: float):
    """`check`'s walk, newest candidate to oldest: (tau_low, stat,
    curves_evaluated, bound_used) of its `CheckOutcome`.  Twice (suffix stat
    + prefix bound) below the threshold certifies every remaining candidate
    below it; twice the suffix stat reaching it is a detection on [tau, now].
    """
    T, St, pooled = state.total_count, state.total_sum, state.total_term
    g_seg = state.newest_mean  # the newest candidate's, cached
    hit_tau = hit_stat = None
    evals, bound2 = 0, 0.0
    for r in reversed(state.records):
        m = curve_m(state, spec, r.tau, r.cum_sum, T, St, pooled, r.pre_term, g_seg)
        g_seg = None
        evals += 1
        bound2 = 2.0 * (m + r.m_bound)
        if bound2 < threshold:
            break
        if 2.0 * m >= threshold:
            hit_tau, hit_stat = r.tau, 2.0 * m
            break
    state.evaluated += evals
    if state.theta0 is None and evals:
        state.pooled += 1
    return hit_tau, hit_stat, evals, bound2
