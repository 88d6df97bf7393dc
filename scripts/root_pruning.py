"""Root-comparison pruning: the cost baseline for mean-comparison pruning.

Orders candidate curves by numerically found roots (safeguarded Newton with
a bisection fallback) instead of comparing segment means.  Its candidate
sets match those of `streamcpd.update` (tested in
tests/test_root_pruning.py) except where two segment means tie, as they do
on integer data: the root comparison breaks such ties differently, so the
sets can differ for some steps.  It exists only to measure what the mean
comparison saves; `null_cost_profile.py` drives it.  The state's records
are the 5-tuples that `update` builds, so `q_full` and `check` run on it;
the root of each candidate's segment curve sits at the same index of a
list kept beside them.  theta0 and its constants come from the state, and
one bracket search, from theta0 towards the domain edge on the monitored
side, serves both directions.

Import it with ``scripts/`` on ``sys.path``.
"""

from __future__ import annotations

import math

from streamcpd import FamilyKind, FamilySpec
from streamcpd.counters import CounterSet
from streamcpd.pruning import PruneState

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


def _curve_root(
    state: PruneState, spec: FamilySpec, seg_sum: float, seg_n: int, tol: float, counters: CounterSet
) -> float:
    """Root of the segment curve on the state's monitored side of its theta0.

    Solves (a(t) - a(t0)) * S - (b(t) - b(t0)) * n = 0 for t != t0 by
    safeguarded Newton iteration with a bisection fallback, to |C| <= tol.
    Returns theta0 itself when the segment mean is at or behind the null
    mean (no root past the boundary), and the domain edge on the monitored
    side (+/-inf where it is open) when the curve stays positive all the
    way to it.
    """
    theta0, alpha0, beta0, sign = state.theta0, state.alpha0, state.beta0, state.sign
    if (seg_sum / seg_n - state.g0) * sign <= 0:
        return theta0
    cost = spec.transcendental_cost

    def C(t: float) -> float:
        counters.transcendental_calls += cost
        return (spec.alpha(t) - alpha0) * seg_sum - (spec.beta_fn(t) - beta0) * seg_n

    def Cp(t: float) -> float:
        return alpha_prime(spec, t) * seg_sum - beta_prime(spec, t) * seg_n

    # bracket [a, b] with C(a) > 0 >= C(b), moving from theta0 towards the edge:
    # doubling steps to an open edge, halving the distance to a closed one
    edge = spec.param_domain[sign > 0]
    a = theta0
    if math.isinf(edge):
        step = max(abs(theta0), 1.0)
        b = theta0 + sign * step
        while math.isfinite(b) and not C(b) <= 0:
            a = b
            step *= 2.0
            b = theta0 + sign * step
        if not math.isfinite(b):
            return edge  # positive at every finite probe
    else:
        b = 0.5 * (theta0 + edge)
        for _ in range(80):
            if (b - edge) * sign >= 0 or b == a:
                return edge  # positive all the way to the domain edge
            if C(b) <= 0:
                break
            a = b
            b = 0.5 * (b + edge)
        else:
            return edge

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
    roots: list[float],
    g: float,
    spec: FamilySpec,
    tolerance: float,
    root_counters: CounterSet | None = None,
) -> PruneState:
    """Update variant that orders curves by numerically-found roots.

    Retains the candidate sets of `update`, except where two segment means
    tie (integer data), which the root comparison breaks differently; known
    pre-change parameter only, read from ``state`` with its constants.
    ``roots`` holds the root of each record's segment curve, index for
    index, and starts empty with the state; both must be driven by this
    update exclusively.  The state tallies its stored curves (so its
    `counters` count merges and stored curves as `update`'s do); the root
    solves' log calls go to ``root_counters``'s ``transcendental_calls``,
    when given.
    """
    if state.theta0 is None:
        raise ValueError("root pruning requires a known pre-change parameter")
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    c = CounterSet() if root_counters is None else root_counters
    recs = state.records
    # `update`'s record of the new candidate: the cached mean that `check` reads, no bound
    recs.append((state.total_count, state.total_sum, state.newest_mean, math.nan, 0.0))
    roots.append(math.nan)
    state.total_count += 1
    state.total_sum += g
    T = state.total_count
    St = state.total_sum
    sign = state.sign

    tau, cs = recs[-1][:2]
    suf_root = _curve_root(state, spec, St - cs, T - tau, tolerance, c)
    while len(recs) >= 2:
        if (suf_root - roots[-2]) * sign > 0:
            break
        recs.pop()
        roots.pop()
        tau, cs = recs[-1][:2]
        suf_root = _curve_root(state, spec, St - cs, T - tau, tolerance, c)

    if len(recs) == 1 and (suf_root - state.theta0) * sign <= 0:
        recs.pop()
        roots.pop()
    elif recs:
        roots[-1] = suf_root
        state.newest_mean = (St - cs) / (T - tau)

    state.stored_sum += len(recs)
    return state
