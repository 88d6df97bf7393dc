"""Pruned functional representation of the one-sided detection statistic.

A PruneState holds the candidate changepoints that can still attain the
running maximum for one direction.  Candidates delimit data segments; the
whole structure is driven by two comparisons on segment means of the
sufficient statistic (no roots, no transcendentals):

* tail merge: a new candidate survives only while the suffix segment mean is
  strictly past the previous segment mean (strictly increasing means for an
  up-change, decreasing for a down-change);
* null barrier (known pre-change parameter only): when everything has merged
  into one segment whose mean is at or behind the pre-change mean, the last
  candidate dies and the state resets, which is exactly the max-with-zero of
  the classic cumulative-sum recursion.

Merging only ever removes curves that are dominated on the relevant
parameter half-line, so the maximum over retained candidates equals the
maximum over all candidates; tests enforce this against the exhaustive
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .counters import CounterSet
from .errors import ParamDomainError
from .families import Direction, FamilySpec, SuffStat

_NAN = float("nan")


@dataclass(slots=True)
class CurveRecord:
    """A retained candidate changepoint.

    ``cum_sum`` snapshots the running sum of g(x) over the first ``tau``
    observations (the prefix count equals ``tau`` itself).  ``m_bound`` is
    the accumulated prefix bound used by the adaptive maxima check.
    """

    tau: int
    cum_sum: float
    m_bound: float = 0.0


@dataclass(slots=True)
class PruneState:
    """Single-direction, single-stream pruning state.  One writer at a time."""

    direction: Direction
    theta0: float | None  # None = pre-change parameter unknown
    records: list[CurveRecord] = field(default_factory=list)
    total_count: int = 0
    total_sum: float = 0.0
    base_count: int = 0
    base_sum: float = 0.0
    counters: CounterSet = field(default_factory=CounterSet)
    # caches, fixed at construction
    sign: int = 1
    alpha0: float = _NAN
    beta0: float = _NAN
    g0: float = _NAN


def new_state(direction: Direction, theta0: float | None, spec: FamilySpec) -> PruneState:
    """Empty state; the represented statistic is identically zero."""
    state = PruneState(direction=direction, theta0=theta0, sign=direction.sign)
    if theta0 is not None:
        if not spec.in_domain(theta0):
            lo, hi = spec.param_domain
            raise ParamDomainError(
                f"theta0={theta0!r} outside parameter domain ({lo}, {hi}) of {spec.kind.value}"
            )
        state.alpha0 = spec.alpha(theta0)
        state.beta0 = spec.beta_fn(theta0)
        state.g0 = spec.mean_suff(theta0)
    return state


def update(state: PruneState, g: float) -> PruneState:
    """Absorb one observation's sufficient statistic g = g(x_T).

    Appends the newest candidate, runs the tail merge cascade, then applies
    the null barrier when the pre-change parameter is known.  Amortized O(1):
    each candidate is appended once and removed at most once.
    """
    c = state.counters
    c.steps += 1
    recs = state.records
    recs.append(CurveRecord(state.total_count, state.total_sum))
    state.total_count += 1
    state.total_sum += g
    T = state.total_count
    St = state.total_sum
    sign = state.sign

    while len(recs) >= 2:
        last = recs[-1]
        prev = recs[-2]
        suf_mean = (St - last.cum_sum) / (T - last.tau)
        seg_mean = (last.cum_sum - prev.cum_sum) / (last.tau - prev.tau)
        if (suf_mean - seg_mean) * sign > 0:
            break
        recs.pop()
        c.merges += 1

    if state.theta0 is not None and len(recs) == 1:
        only = recs[0]
        suf_mean = (St - only.cum_sum) / (T - only.tau)
        if (suf_mean - state.g0) * sign <= 0:
            recs.pop()
            c.merges += 1
            state.base_count = T
            state.base_sum = St

    c.curves_stored_sum += len(recs)
    return state


def segments(state: PruneState) -> list[tuple[int, SuffStat, float]]:
    """Read-only view: (tau, segment stat, prefix bound) in tau order.

    The last entry's stat covers the open suffix from the newest candidate
    to the current time.
    """
    recs = state.records
    out = []
    for i, r in enumerate(recs):
        if i + 1 < len(recs):
            nxt = recs[i + 1]
            stat = SuffStat(nxt.cum_sum - r.cum_sum, nxt.tau - r.tau)
        else:
            stat = SuffStat(state.total_sum - r.cum_sum, state.total_count - r.tau)
        out.append((r.tau, stat, r.m_bound))
    return out


def m_unknown_raw(
    spec: FamilySpec,
    tau_i: int,
    sum_i: float,
    tau_j: int,
    sum_j: float,
    sign: int,
    pooled_term: float | None = None,
) -> float:
    """Likelihood-ratio statistic for a change at tau_i, window ending tau_j,
    pre-change parameter maximised out, post-change restricted to one side.

    Zero when the segment mean does not lie past the prefix mean in the
    monitored direction (the order-constrained fit pools to the common MLE),
    and zero at tau_i = 0 where no pre-change data exists.
    """
    if tau_i == 0:
        return 0.0
    n = tau_j - tau_i
    g_pre = sum_i / tau_i
    g_seg = (sum_j - sum_i) / n
    if (g_seg - g_pre) * sign <= 0:
        return 0.0
    if pooled_term is None:
        pooled_term = tau_j * spec.conjugate(sum_j / tau_j)
    m = tau_i * spec.conjugate(g_pre) + n * spec.conjugate(g_seg) - pooled_term
    return m if m > 0.0 else 0.0  # split fit >= pooled fit; clip rounding noise


def q_full(state: PruneState, spec: FamilySpec) -> tuple[float, int | None]:
    """Full maximisation over every retained candidate.

    Returns the statistic on the Q scale together with the earliest argmax
    candidate (None when the statistic is zero).  Evaluates every retained
    curve; the adaptive check in `maxima` usually avoids this.
    """
    recs = state.records
    if not recs:
        return 0.0, None
    c = state.counters
    T = state.total_count
    St = state.total_sum
    sign = state.sign
    best = 0.0
    best_tau: int | None = None
    if state.theta0 is not None:
        a0, b0, g0 = state.alpha0, state.beta0, state.g0
        for r in recs:
            m = spec.seg_lr_raw(a0, b0, g0, St - r.cum_sum, T - r.tau, sign)
            if m > best:
                best = m
                best_tau = r.tau
        c.transcendental_calls += len(recs) * spec.transcendental_cost
    else:
        pooled = T * spec.conjugate(St / T)
        for r in recs:
            m = m_unknown_raw(spec, r.tau, r.cum_sum, T, St, sign, pooled)
            if m > best:
                best = m
                best_tau = r.tau
        c.transcendental_calls += (2 * len(recs) + 1) * spec.transcendental_cost
    c.curves_evaluated_sum += len(recs)
    return best, best_tau
