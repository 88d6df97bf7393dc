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
from .families import Direction, FamilySpec

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
    # step tallies, from which `counters` derives the cost counters
    stored_sum: int = 0
    bounded: int = 0
    evaluated: int = 0
    pooled: int = 0
    # caches, fixed at construction
    sign: int = 1
    cost: int = 1  # the family's transcendental_cost
    alpha0: float = _NAN
    beta0: float = _NAN
    g0: float = _NAN

    @property
    def counters(self) -> CounterSet:
        """A fresh snapshot of the cost counters, derived from the tallies:
        a step adds one candidate and a merge or the barrier removes one; a
        prefix bound costs 1 log evaluation (3 with theta0 unknown), a curve
        1 (2), a pooled term 1, each times the family's cost."""
        b, e = self.bounded, self.evaluated
        logs = b + e if self.theta0 is not None else 3 * b + 2 * e + self.pooled
        return CounterSet(self.total_count - len(self.records), self.stored_sum, e, self.cost * logs)


def new_state(direction: Direction, theta0: float | None, spec: FamilySpec) -> PruneState:
    """Empty state; the represented statistic is identically zero."""
    state = PruneState(direction, theta0, sign=direction.sign, cost=spec.transcendental_cost)
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
    """Absorb g = g(x_T): `_absorb` without the prefix bound (`attach_bounds`)."""
    _absorb(state, g, None)
    return state


def _absorb(state: PruneState, g: float, spec: FamilySpec | None) -> int:
    """Append the newest candidate, run the tail merge cascade, then the null
    barrier when theta0 is known; amortized O(1); returns the curves stored.
    The newest is held as (lt, lc) and stored only if it survives; given
    ``spec``, it gets its prefix bound as from `maxima.attach_bounds`.
    `bench._pop_steps` mirrors cascade and barrier expression for expression: change both.
    """
    recs = state.records
    lt, lc = state.total_count, state.total_sum
    T = state.total_count = lt + 1
    St = state.total_sum = lc + g
    sign = state.sign
    n = len(recs)  # recs[:n] are the candidates older than (lt, lc)
    while n:
        prev = recs[n - 1]
        if ((St - lc) / (T - lt) - (lc - prev.cum_sum) / (lt - prev.tau)) * sign > 0:
            break
        n -= 1
        lt, lc = prev.tau, prev.cum_sum
    if state.theta0 is not None and not n and ((St - lc) / (T - lt) - state.g0) * sign <= 0:
        recs.clear()
        state.base_count, state.base_sum = T, St
        return 0
    state.stored_sum += n + 1
    if n < len(recs):  # merged: recs[n] is (lt, lc)
        del recs[n + 1:]
    elif spec is not None and n:  # prev is recs[n - 1], where the cascade stopped
        recs.append(CurveRecord(lt, lc, prev.m_bound + curve_m(state, spec, prev.tau, prev.cum_sum, lt, lc)))
        state.bounded += 1
    else:
        recs.append(CurveRecord(lt, lc))
    return n + 1


def curve_m(
    state: PruneState,
    spec: FamilySpec,
    tau: int,
    cum_sum: float,
    T: int,
    St: float,
    pooled: float | None = None,
) -> float:
    """Likelihood-ratio statistic (Q scale) of a change at ``tau`` within the
    first ``T`` observations, post-change restricted to the state's side.

    ``cum_sum`` and ``St`` are the prefix sums of g at ``tau`` and ``T``.
    theta0 known: n [A(g_seg) - (a0 g_seg - b0)]; unknown: tau A(g_pre) +
    n A(g_seg) - T A(g_all), whose last term ``pooled`` may be shared across
    curves.  Zero when g_seg is not past the pre-change mean in the state's
    direction, and at tau = 0 with theta0 unknown (no pre-change data).
    """
    n = T - tau
    g_seg = (St - cum_sum) / n
    if state.theta0 is not None:
        if (g_seg - state.g0) * state.sign <= 0:
            return 0.0
        m = n * (spec.conjugate(g_seg) - (state.alpha0 * g_seg - state.beta0))
    else:
        if tau == 0:
            return 0.0
        g_pre = cum_sum / tau
        if (g_seg - g_pre) * state.sign <= 0:
            return 0.0
        if pooled is None:
            pooled = T * spec.conjugate(St / T)
        m = tau * spec.conjugate(g_pre) + n * spec.conjugate(g_seg) - pooled
    return m if m > 0.0 else 0.0  # >= 0 in exact arithmetic; clip rounding noise


def q_full(state: PruneState, spec: FamilySpec) -> tuple[float, int | None]:
    """Full maximisation over every retained candidate.

    Returns the statistic on the Q scale together with the earliest argmax
    candidate (None when the statistic is zero).  Evaluates every retained
    curve; the adaptive check in `maxima` usually avoids this.
    """
    recs = state.records
    if not recs:
        return 0.0, None
    T = state.total_count
    St = state.total_sum
    pooled = None if state.theta0 is not None else T * spec.conjugate(St / T)
    best = 0.0
    best_tau: int | None = None
    for r in recs:
        m = curve_m(state, spec, r.tau, r.cum_sum, T, St, pooled)
        if m > best:
            best = m
            best_tau = r.tau
    state.evaluated += len(recs)
    if pooled is not None:
        state.pooled += 1
    return best, best_tau
