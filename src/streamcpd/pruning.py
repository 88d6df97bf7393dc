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

Each retained candidate is a plain tuple that nothing mutates, (tau,
cum_sum, left_mean, pre_term, m_bound): its time, the sum of g(x) over the
first tau observations, the mean of the segment that ends at it (unused on
the oldest), tau A(cum_sum / tau) with theta0 unknown, and the prefix bound
of `maxima` (0.0 if none is attached).  The first three are the stack entry
of `bench._pop_steps`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .counters import CounterSet, derive
from .errors import ParamDomainError
from .families import Direction, FamilySpec

_NAN = float("nan")


@dataclass(slots=True)
class PruneState:
    """Single-direction, single-stream pruning state.  One writer at a time."""

    direction: Direction
    theta0: float | None  # None = pre-change parameter unknown
    records: list[tuple[int, float, float, float, float]] = field(default_factory=list)
    total_count: int = 0
    total_sum: float = 0.0
    # step tallies, from which `counters` derives the cost counters
    stored_sum: int = 0
    bounded: int = 0
    evaluated: int = 0
    pooled: int = 0
    # caches of the step: the newest segment's mean, and T A(S_T / T)
    newest_mean: float = _NAN
    total_term: float = _NAN
    # caches, fixed at construction
    sign: int = 1
    cost: int = 1  # the family's transcendental_cost
    conj: Callable[[float], float] | None = None  # the family's conjugate, with theta0 unknown
    alpha0: float = _NAN
    beta0: float = _NAN
    g0: float = _NAN

    @property
    def counters(self) -> CounterSet:
        """A fresh snapshot of the cost counters, derived from the tallies
        by `counters.derive`: a step adds one candidate."""
        return derive(self.total_count, len(self.records), self.stored_sum, self.bounded,
                      self.evaluated, self.pooled, self.theta0 is not None, self.cost)


def new_state(direction: Direction, theta0: float | None, spec: FamilySpec) -> PruneState:
    """Empty state; the represented statistic is identically zero."""
    state = PruneState(direction, theta0, sign=direction.sign, cost=spec.transcendental_cost,
                       conj=spec.conjugate if theta0 is None else None)
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
    _absorb([state], g, None)
    return state


def _absorb(states: list[PruneState], g: float, spec: FamilySpec | None) -> int:
    """Absorb g into states fed the same observations: price T A(S_T / T)
    once (theta0 unknown), then on each run the tail merge cascade from the
    newest candidate (lt, lc, left, pre), stored only if it survives, and
    the null barrier when theta0 is known; amortized O(1); returns the
    curves stored.  A comparison divides at most once and reads the cached
    left mean; NaN merges.  Given ``spec``, a stored newest gets its prefix
    bound as from `maxima.attach_bounds`, else 0.0.  `bench._pop_steps`
    runs cascade and barrier on the first three fields of the same records,
    in their up form: a down state there sees -g, and a comparison times
    sign here is the same comparison on negated sums.  Change both.
    """
    first = states[0]
    T = first.total_count + 1
    St = first.total_sum + g
    term = _NAN if first.conj is None else T * first.conj(St / T)
    stored = 0
    for state in states:
        recs = state.records
        lt, lc, left, pre = T - 1, state.total_sum, state.newest_mean, state.total_term
        state.total_count, state.total_sum, state.total_term = T, St, term
        sign = state.sign
        n = len(recs)  # recs[:n] are the candidates older than (lt, lc)
        mean = St - lc  # the newest segment spans one step
        while n:
            if (mean - left) * sign > 0:
                break
            n -= 1
            lt, lc, left, pre, _ = recs[n]
            mean = (St - lc) / (T - lt)
        if not n and (mean - state.g0) * sign <= 0:  # g0 is NaN with theta0 unknown
            recs.clear()
            continue
        state.newest_mean = mean
        state.stored_sum += n + 1
        stored += n + 1
        if n < len(recs):  # merged: recs[n] is (lt, lc)
            del recs[n + 1:]
        elif spec is not None and n:  # recs[n - 1] is where the cascade stopped
            pt, pc, _, ppre, pm = recs[n - 1]
            recs.append((lt, lc, left, pre, pm + curve_m(state, spec, pt, pc, lt, lc, pre, ppre, left)))
            state.bounded += 1
        else:
            recs.append((lt, lc, left, pre, 0.0))
    return stored


def curve_m(state: PruneState, spec: FamilySpec, tau: int, cum_sum: float, T: int, St: float,
            pooled: float | None = None, pre: float | None = None, g_seg: float | None = None) -> float:
    """Likelihood-ratio statistic (Q scale) of a change at ``tau`` within the
    first ``T`` observations, post-change restricted to the state's side.

    ``cum_sum`` and ``St`` are the prefix sums of g at ``tau`` and ``T``.
    theta0 known: n [A(g_seg) - (a0 g_seg - b0)]; unknown: tau A(g_pre) +
    n A(g_seg) - T A(g_all), with ``pooled``, ``pre`` and ``g_seg`` the
    cached T A(g_all), tau A(g_pre) and g_seg, computed when None.  Zero when
    g_seg is not past the pre-change mean in the state's direction, and at
    tau = 0 with theta0 unknown (no pre-change data).
    """
    n = T - tau
    if g_seg is None:
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
        if pre is None:
            pre = tau * spec.conjugate(g_pre)
        m = pre + n * spec.conjugate(g_seg) - pooled
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
    T, St, pooled = state.total_count, state.total_sum, state.total_term
    best = 0.0
    best_tau: int | None = None
    for tau, cs, _, pre, _ in recs:
        m = curve_m(state, spec, tau, cs, T, St, pooled, pre)
        if m > best:
            best = m
            best_tau = tau
    state.evaluated += len(recs)
    if state.theta0 is None:
        state.pooled += 1
    return best, best_tau
