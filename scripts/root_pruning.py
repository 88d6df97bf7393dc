"""Root-comparison pruning: the cost baseline for mean-comparison pruning.

Orders candidate curves by numerically found roots (safeguarded Newton with
a bisection fallback) instead of comparing segment means.  It retains exactly
the candidate sets of `streamcpd.update` (tested in
tests/test_root_pruning.py) and exists only to measure what the mean
comparison saves; `null_cost_profile.py` drives it.

Import it with ``scripts/`` on ``sys.path``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from streamcpd import FamilyKind, FamilySpec
from streamcpd.counters import CounterSet
from streamcpd.pruning import CurveRecord, PruneState

# kind -> (a'(theta), b'(theta)) as functions of (spec, theta)
_DERIVATIVES = {
    FamilyKind.GAUSS_MEAN: (lambda s, t: 1.0, lambda s, t: t),
    FamilyKind.GAUSS_VAR: (lambda s, t: 1.0 / (2.0 * t * t), lambda s, t: 0.5 / t),
    FamilyKind.POISSON: (lambda s, t: 1.0 / t, lambda s, t: 1.0),
    FamilyKind.BINOMIAL: (lambda s, t: 1.0 / (t * (1.0 - t)), lambda s, t: s.trials / (1.0 - t)),
    FamilyKind.GAMMA: (lambda s, t: 1.0 / (t * t), lambda s, t: s.shape / t),
}


def alpha_prime(spec: FamilySpec, theta: float) -> float:
    return _DERIVATIVES[spec.kind][0](spec, theta)


def beta_prime(spec: FamilySpec, theta: float) -> float:
    return _DERIVATIVES[spec.kind][1](spec, theta)


@dataclass(slots=True)
class RootRecord(CurveRecord):
    """A retained candidate with the root of its segment curve."""

    root: float = math.nan


def _curve_root(
    spec: FamilySpec,
    theta0: float,
    alpha0: float,
    beta0: float,
    g0: float,
    seg_sum: float,
    seg_n: int,
    sign: int,
    tol: float,
    counters: CounterSet,
) -> float:
    """Root of the segment curve on the monitored side of theta0.

    Solves (a(t) - a(t0)) * S - (b(t) - b(t0)) * n = 0 for t != t0 by
    safeguarded Newton iteration with a bisection fallback, to |C| <= tol.
    Returns theta0 itself when the segment mean is at or behind the null
    mean (no root past the boundary), and +/-inf when the curve stays
    positive all the way to the domain edge.
    """
    gbar = seg_sum / seg_n
    if (gbar - g0) * sign <= 0:
        return theta0
    cost = spec.transcendental_cost

    def C(t: float) -> float:
        counters.transcendental_calls += cost
        return (spec.alpha(t) - alpha0) * seg_sum - (spec.beta_fn(t) - beta0) * seg_n

    def Cp(t: float) -> float:
        return alpha_prime(spec, t) * seg_sum - beta_prime(spec, t) * seg_n

    lo_dom, hi_dom = spec.param_domain
    # bracket [a, b] with C(a) > 0 >= C(b), expanding away from theta0
    a = theta0
    if sign > 0:
        if math.isinf(hi_dom):
            step = max(abs(theta0), 1.0)
            b = theta0 + step
            for _ in range(200):
                if C(b) <= 0:
                    break
                a = b
                step *= 2.0
                b = theta0 + step
            else:
                return math.inf
        else:
            b = 0.5 * (theta0 + hi_dom)
            for _ in range(80):
                if b >= hi_dom or b == a:
                    return hi_dom  # positive all the way to the domain edge
                if C(b) <= 0:
                    break
                a = b
                b = 0.5 * (b + hi_dom)
            else:
                return hi_dom
    else:
        if math.isinf(lo_dom):
            step = max(abs(theta0), 1.0)
            b = theta0 - step
            for _ in range(200):
                if C(b) <= 0:
                    break
                a = b
                step *= 2.0
                b = theta0 - step
            else:
                return -math.inf
        else:
            b = 0.5 * (theta0 + lo_dom)
            for _ in range(80):
                if b <= lo_dom or b == a:
                    return lo_dom  # positive all the way to the domain edge
                if C(b) <= 0:
                    break
                a = b
                b = 0.5 * (b + lo_dom)
            else:
                return lo_dom

    # a is on the positive side, b on the non-positive side
    x = 0.5 * (a + b)
    for _ in range(100):
        fx = C(x)
        if abs(fx) <= tol:
            return x
        if fx > 0:
            a = x
        else:
            b = x
        if abs(b - a) <= 1e-15 * max(1.0, abs(x)):
            return x
        d = Cp(x)
        if d != 0.0:
            xn = x - fx / d
            if min(a, b) < xn < max(a, b):
                x = xn
                continue
        x = 0.5 * (a + b)
    return x


def update_root_pruning(
    state: PruneState,
    g: float,
    spec: FamilySpec,
    theta0: float,
    tolerance: float,
    root_counters: CounterSet | None = None,
) -> PruneState:
    """Update variant that orders curves by numerically-found roots.

    Retains exactly the same candidate sets as `update`; known pre-change
    parameter only.  A state must be driven by one update flavour
    exclusively.  The state tallies its stored curves (so its `counters`
    count merges and stored curves as `update`'s do); the root solves' log
    calls go to ``root_counters``'s ``transcendental_calls``, when given.
    """
    if state.theta0 is None:
        raise ValueError("root pruning requires a known pre-change parameter")
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    c = CounterSet() if root_counters is None else root_counters
    recs = state.records
    recs.append(RootRecord(state.total_count, state.total_sum))
    state.total_count += 1
    state.total_sum += g
    T = state.total_count
    St = state.total_sum
    sign = state.sign
    a0, b0, g0 = state.alpha0, state.beta0, state.g0

    suf_root = _curve_root(
        spec, theta0, a0, b0, g0, St - recs[-1].cum_sum, T - recs[-1].tau, sign, tolerance, c
    )
    while len(recs) >= 2:
        prev = recs[-2]
        if (suf_root - prev.root) * sign > 0:
            break
        recs.pop()
        last = recs[-1]
        suf_root = _curve_root(
            spec, theta0, a0, b0, g0, St - last.cum_sum, T - last.tau, sign, tolerance, c
        )

    if len(recs) == 1 and (suf_root - theta0) * sign <= 0:
        recs.pop()
        state.base_count = T
        state.base_sum = St
    elif recs:
        recs[-1].root = suf_root

    state.stored_sum += len(recs)
    return state
