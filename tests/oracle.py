"""Exhaustive reference statistics, used as the ground truth in tests.

Everything here maximises over every candidate changepoint by direct
enumeration on raw prefix sums.  It shares the family closed forms but none
of the pruned bookkeeping, so it stays an independent check of the streaming
implementation.  O(T) per call; meant for desk-scale data only.  The two
exceptions are references that the library's fused or batched forms must
equal bit for bit: `layered_step_states`, `detector.step_states` as calls of
`update`, `attach_bounds` and `check`, and `scalar_running_max`, the
step-by-step form of `bench.stat_running_max`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from streamcpd.detector import Detection, Detector, DetectorConfig
from streamcpd.families import Direction, FamilySpec
from streamcpd.maxima import attach_bounds, check
from streamcpd.pruning import q_full, update


def conjugate_arr(spec: FamilySpec, g) -> np.ndarray:
    """Elementwise A(g) on an array, same boundary conventions as
    `spec.conjugate`: the values of the family table's array column."""
    return spec.conjugate_arr(g)[0]


@dataclass(frozen=True)
class OracleResult:
    q: float
    tau_hat: int | None
    per_tau: list[tuple[int, float]]


def _prefix_sums(spec: FamilySpec, data) -> np.ndarray:
    g = np.array([spec.suff(x) for x in data], dtype=float)
    out = np.zeros(len(g) + 1)
    np.cumsum(g, out=out[1:])
    return out


def _masked_conjugate(spec: FamilySpec, g: np.ndarray, mask: np.ndarray) -> np.ndarray:
    # evaluate A only where mask holds; off-mask entries never touch the
    # family's domain checks
    safe = np.where(mask, g, 1.0)
    return np.where(mask, conjugate_arr(spec, safe), 0.0)


def _all_m(spec: FamilySpec, P: np.ndarray, T: int, known, sign: int):
    """Per-candidate statistics (taus, m) for the window of the first T points.

    ``known`` is the precomputed (alpha0, beta0, g0) triple, or None for the
    pre-change-unknown case.
    """
    if known is not None:
        taus = np.arange(0, T)
        n_suf = T - taus
        g_suf = (P[T] - P[taus]) / n_suf
        a0, b0, g0 = known
        mask = (g_suf - g0) * sign > 0
        m = np.where(mask, n_suf * (_masked_conjugate(spec, g_suf, mask) - (a0 * g_suf - b0)), 0.0)
        return taus, np.maximum(m, 0.0)
    taus = np.arange(1, T)
    if T < 2:
        return taus, np.zeros(0)
    n_suf = T - taus
    g_pre = P[taus] / taus
    g_suf = (P[T] - P[taus]) / n_suf
    mask = (g_suf - g_pre) * sign > 0
    a_pre = _masked_conjugate(spec, g_pre, mask)
    a_suf = _masked_conjugate(spec, g_suf, mask)
    a_all = conjugate_arr(spec, np.array([P[T] / T]))[0] if mask.any() else 0.0
    m = np.where(mask, taus * a_pre + n_suf * a_suf - T * a_all, 0.0)
    return taus, np.maximum(m, 0.0)


def _known_triple(spec: FamilySpec, theta0: float | None):
    if theta0 is None:
        return None
    return (spec.alpha(theta0), spec.beta_fn(theta0), spec.mean_suff(theta0))


def naive_q(
    spec: FamilySpec,
    theta0: float | None,
    direction: Direction,
    data,
) -> OracleResult:
    """Exact max over all changepoints of the one-sided likelihood-ratio statistic.

    ``theta0 = None`` means the pre-change parameter is unknown (maximised
    out); candidate changepoints are then {1..T-1} since a change at 0 leaves
    no pre-change data and carries no evidence.  Returns the statistic on the
    Q scale (half the usual 2-log-LR scale).
    """
    if len(data) == 0:
        raise ValueError("naive_q requires non-empty data")
    P = _prefix_sums(spec, data)
    T = len(data)
    taus, m = _all_m(spec, P, T, _known_triple(spec, theta0), direction.sign)
    if len(m) == 0:
        return OracleResult(q=0.0, tau_hat=None, per_tau=[])
    best = int(np.argmax(m))
    q = float(m[best])
    tau_hat = int(taus[best]) if q > 0 else None
    per_tau = [(int(t), float(v)) for t, v in zip(taus, m)]
    return OracleResult(q=q, tau_hat=tau_hat, per_tau=per_tau)


def naive_q_path(
    spec: FamilySpec,
    theta0: float | None,
    direction: Direction,
    data,
) -> tuple[np.ndarray, np.ndarray]:
    """`naive_q` evaluated after every step of the stream.

    Returns (q, tau_hat) arrays of length T; tau_hat is -1 where q is zero.
    Still exhaustive at every step, just without per-step re-parsing, so
    equivalence tests over whole streams stay affordable.
    """
    if len(data) == 0:
        raise ValueError("naive_q_path requires non-empty data")
    P = _prefix_sums(spec, data)
    T = len(data)
    known = _known_triple(spec, theta0)
    sign = direction.sign
    qs = np.zeros(T)
    taus_hat = np.full(T, -1, dtype=np.int64)
    for t in range(1, T + 1):
        taus, m = _all_m(spec, P, t, known, sign)
        if len(m) == 0:
            continue
        best = int(np.argmax(m))
        qs[t - 1] = m[best]
        if m[best] > 0:
            taus_hat[t - 1] = taus[best]
    return qs, taus_hat


def grid_q(
    spec: FamilySpec,
    theta0: float,
    direction: Direction,
    data,
    theta_grid,
) -> float:
    """Max over changepoints and a fixed grid of post-change parameters.

    A lower bound on ``naive_q`` that converges to it as the grid refines
    (the boundary value 0, the theta1 -> theta0 limit, is always included).
    """
    if len(data) == 0:
        raise ValueError("grid_q requires non-empty data")
    sign = direction.sign
    for t in theta_grid:
        if not spec.in_domain(t) or (t - theta0) * sign <= 0:
            raise ValueError(f"grid point {t!r} not on the {direction.name} side of theta0")
    P = _prefix_sums(spec, data)
    T = len(data)
    taus = np.arange(0, T)
    S = P[T] - P[taus]
    n = (T - taus).astype(float)
    a0 = spec.alpha(theta0)
    b0 = spec.beta_fn(theta0)
    best = 0.0
    for t in theta_grid:
        vals = (spec.alpha(t) - a0) * S - (spec.beta_fn(t) - b0) * n
        best = max(best, float(vals.max()))
    return best


def scalar_running_max(config: DetectorConfig, data) -> np.ndarray:
    """Running maximum of the doubled statistic after each step, by `update`
    and `q_full` on every direction after every step."""
    spec = config.spec
    g_arr = spec.suff_arr(np.asarray(data, dtype=float))
    states = Detector(config).states
    out = np.empty(len(g_arr))
    run = 0.0
    for i, gi in enumerate(g_arr.tolist()):
        v = 0.0
        for st in states:
            update(st, gi)
            v = max(v, 2.0 * q_full(st, spec)[0])
        if v > run:
            run = v
        out[i] = run
    return out


def layered_step_states(states, spec: FamilySpec, g: float, threshold: float | None):
    """`detector.step_states` through the public layers: `update` and
    `attach_bounds` on every state, then `check` on every state when
    ``threshold`` is given and the statistic is defined.  The curves stored
    are counted from the records."""
    for st in states:
        update(st, g)
        attach_bounds(st, spec)
    detection = None
    evals = 0
    first = states[0]
    if threshold is not None and (first.theta0 is not None or first.total_count >= 2):
        for st in states:
            out = check(st, spec, threshold)
            evals += out.curves_evaluated
            if out.changed and (detection is None or out.stat > detection.stat):
                detection = Detection(st.total_count, out.tau_low, out.stat, st.direction)
    return detection, evals, sum(len(st.records) for st in states)
