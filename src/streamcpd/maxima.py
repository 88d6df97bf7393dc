"""Adaptive maxima checking with telescoped prefix bounds.

Each retained candidate carries, as the last field of its record (see
`pruning`), the running sum of the per-segment likelihood-ratio statistics
accumulated strictly before it.  That sum plus the candidate's own suffix
statistic upper-bounds the maximum over all earlier candidates, so under
the null the check usually stops after evaluating a single curve; the
bound only ever skips work, it never changes the threshold decision.
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
    first candidate keeps 0.0; a new candidate's record is replaced by one
    with its predecessor's bound plus the statistic of the segment between
    them.  Merged candidates need nothing, and survivors keep their bounds
    (their prefix segments are frozen).
    """
    recs = state.records
    if len(recs) < 2 or recs[-1][0] != state.total_count - 1:
        return  # the first bound is 0.0 as `update` stores it, or the newest merged away
    pt, pc, _, ppre, pm = recs[-2]
    lt, lc, left, pre, _ = recs[-1]
    recs[-1] = (lt, lc, left, pre, pm + curve_m(state, spec, pt, pc, lt, lc, pre, ppre, left))
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
    for tau, cs, _, pre, bound in reversed(state.records):
        m = curve_m(state, spec, tau, cs, T, St, pooled, pre, g_seg)
        g_seg = None
        evals += 1
        bound2 = 2.0 * (m + bound)
        if bound2 < threshold:
            break
        if 2.0 * m >= threshold:
            hit_tau, hit_stat = tau, 2.0 * m
            break
    state.evaluated += evals
    if state.theta0 is None and evals:
        state.pooled += 1
    return hit_tau, hit_stat, evals, bound2
